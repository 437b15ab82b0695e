(** Dense binary relations over [0 .. n-1], stored as bit matrices.

    Used by the history/consistency machinery for causality relations:
    transitive closure and reduction, acyclicity checks, and topological
    orders over operation indices. *)

type t

(** [create n] is the empty relation over [n] elements. *)
val create : int -> t

val size : t -> int

(** [add t i j] adds the pair (i, j). Idempotent. *)
val add : t -> int -> int -> unit

(** [mem t i j] tests membership of (i, j). *)
val mem : t -> int -> int -> bool

(** [copy t] is an independent copy. *)
val copy : t -> t

(** [union a b] is a new relation containing the pairs of both. The two
    relations must have the same size. *)
val union : t -> t -> t

(** [union_into dst src] adds every pair of [src] to [dst], a word at a
    time. The two relations must have the same size. *)
val union_into : t -> t -> unit

(** [union_row t ~src ~dst] adds every successor of [src] to the
    successors of [dst], a word at a time. *)
val union_row : t -> src:int -> dst:int -> unit

(** [transitive_closure t] is a new relation: the transitive closure.
    [i] reaches itself only when it lies on a cycle (a self-loop
    included). Computed by SCC condensation: an iterative Tarjan pass
    finishes components sinks first and each component's row is the
    union of its successors' finished rows, skipping successors already
    covered a word at a time. Cost is O(n * n / word_size) to scan the
    rows plus O(n / word_size) per successor that is not already
    covered; on the sparse causality-style relations of this code base
    that is close to linear in the size of the output. *)
val transitive_closure : t -> t

(** [transitive_reduction t] is a new relation: the unique minimal relation
    with the same transitive closure. Defined for acyclic relations; raises
    [Invalid_argument] if [t] has a cycle. *)
val transitive_reduction : t -> t

(** [is_acyclic t] checks that the relation (viewed as a digraph) has no
    directed cycle. A self-loop is a cycle. *)
val is_acyclic : t -> bool

(** [topological_order t] lists all elements in an order consistent with
    the relation (edges point forward). Raises [Invalid_argument] on a
    cyclic relation. Deterministic: prefers lower indices. *)
val topological_order : t -> int list

(** [successors t i] lists [j] with (i, j) in the relation, ascending. *)
val successors : t -> int -> int list

(** [predecessors t j] lists [i] with (i, j) in the relation, ascending. *)
val predecessors : t -> int -> int list

(** [fold t f init] folds over all pairs (i, j) of the relation, in
    ascending (i, j) order. Visits set bits only. *)
val fold : t -> ('a -> int -> int -> 'a) -> 'a -> 'a

(** [cardinal t] is the number of pairs. *)
val cardinal : t -> int

(** [equal a b] tests extensional equality. *)
val equal : t -> t -> bool

(** [subset a b] tests whether every pair of [a] is in [b]. *)
val subset : t -> t -> bool

(** [restrict t keep] is the relation restricted to pairs whose endpoints
    both satisfy [keep]. Size is preserved; indices are not renumbered.
    [keep] is called once per element. *)
val restrict : t -> (int -> bool) -> t
