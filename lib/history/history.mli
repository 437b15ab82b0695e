(** Global histories and their derived relations (paper, Section 3).

    A history is a pair [(Op, ⇝)]: the operations of all processes plus a
    causality relation [⇝] defined as the transitive closure of the union
    of program order [→], the reads-from relation [↦], and the
    synchronization order [⤇] (itself the union of the lock, barrier and
    await orders).

    This module is the offline builder of that structure; {!Stream} is
    the online one. Both build the synchronization order only as a
    covering ({!sync_order_reduced}) with the same transitive closure.
    The definitional lock and barrier orders and the per-reader
    relations of Definitions 2 and 3 live in the test oracle
    ([test/oracle.ml]), which checks this covering against them.

    All relations returned by this module are {!Mc_util.Relation.t} values
    over operation ids. *)

type t

(** [create ~procs ops] builds a history over processes [0..procs-1].
    Operation ids must equal their index in [ops]. Raises
    [Invalid_argument] if ids are out of order or a process id is out of
    range. *)
val create : procs:int -> Op.t array -> t

val procs : t -> int
val ops : t -> Op.t array
val length : t -> int
val op : t -> int -> Op.t

(** [initial_value h loc] is the value a location holds before any write
    (always 0 in this implementation). *)
val initial_value : t -> Op.location -> Op.value

(** {1 Well-formedness (the four conditions of Section 3)}

    A local history is well-formed when: the interface ordering is
    consistent with the program (encoded here as: event sequence numbers
    are distinct and each invocation precedes its response); at any time
    at most one invocation is pending per object; every unlock has a
    preceding matching lock by the same process; and barrier operations
    are totally ordered with respect to all operations of the process. *)

type violation = { op_id : int option; reason : string }

(** [well_formedness_violations h] returns all violations found, empty if
    well-formed. Also validates global lock discipline (write locks
    exclusive, readers excluded while a writer holds the lock) and the
    unique-writes-per-location assumption of Section 3. *)
val well_formedness_violations : t -> violation list

val is_well_formed : t -> bool

(** {1 Lock and barrier context}

    One walk over each process's operations in invocation order (equal
    invocation numbers take the larger id first), memoized on the
    history. Per operation it records the locks held and the barrier
    phase; per location, the Eraser state and candidate lockset (Savage
    et al.) over the reads, writes and decrements that touch it. The
    program classes of Section 4 ([Mc_consistency.Program_class]), the
    lint rules and the race detector's lockset screen all read it. *)

type lock_mode = Mode_read | Mode_write

(** One acquisition of a lock: its mode and the acquiring operation. *)
type acquisition = { lock : Op.lock_name; mode : lock_mode; acquired_by : int }

(** A location is exclusive to the first process that accesses it until
    another one does; it is then shared while only read, and
    shared-modified once a write follows. *)
type eraser = Exclusive | Shared | Shared_modified

(** What the walk learns of one location from its accesses, in walk
    order: process 0 first, each process in invocation order. *)
type lockset = {
  loc : Op.location;
  accessors : int list;  (** the processes that access it, sorted *)
  state : eraser;
  candidates : Op.lock_name list;
      (** the locks held in a sufficient mode at every access, sorted: a
          write needs write mode, a read either mode *)
  first_unprotected : int option;
      (** the access that emptied [candidates], if one did *)
  awaited : bool;  (** some await observes the location *)
}

type walk = {
  held : acquisition list array;
      (** by operation id: the innermost acquisition of each lock its
          process holds when it is invoked *)
  phase : int array;
      (** by operation id: the barriers before it on its process *)
  held_at_end : acquisition list array;
      (** by process: every acquisition still held at its end *)
  locations : (Op.location, lockset) Hashtbl.t;
      (** every location a read, write or decrement accesses *)
}

(** [walk h] is the walk, run on the first call and memoized. *)
val walk : t -> walk

(** {1 Derived relations} *)

(** [program_order h] is [→]: the union of the per-process partial orders.
    [o1 →i o2] iff both are by process [i] and the response event of [o1]
    precedes the invocation event of [o2]. *)
val program_order : t -> Mc_util.Relation.t

(** [reads_from h] is [↦]: edges from each write-like operation to the
    operations that return its value (unique-writes assumption). Reads of
    the initial value have no incoming edge. *)
val reads_from : t -> Mc_util.Relation.t

(** [await_order h] is [⤇await]: an edge from the unique write [w(x)v] to
    every [await(x = v)]. *)
val await_order : t -> Mc_util.Relation.t

(** [sync_order_reduced h] is [⤇p]: the union of structural coverings of
    the three synchronization orders, as used by the PRAM order
    (Definition 3, step 1). Each covering has the same transitive closure
    as the order it covers while staying sparse:
    - the lock order [⤇lock] is built per lock object from the
      manager-assigned grant order ([sync_seq]), grouped into epochs (one
      write epoch per critical section, maximal runs of read locks);
      its covering is exactly the canonical transitive reduction
      (intra-epoch edges plus the surface edges between adjacent epochs);
    - the barrier order [⤇bar] orders every operation before episode
      [k] on its process before every member of the episode, and every
      member before every operation after it; in the covering each
      operation connects to the members of the episode(s) immediately
      following and preceding it on its own process;
    - the await order is already reduced ({!await_order}).

    The coverings are defined edge-for-edge so the streaming engine
    ({!Stream}) reproduces them incrementally. *)
val sync_order_reduced : t -> Mc_util.Relation.t

(** [causality_base h] is [→ ∪ ↦ ∪ ⤇p]: program order, reads-from and
    the synchronization covering. Its transitive closure is {!causality},
    so a total order extends [⇝] iff it extends this relation. *)
val causality_base : t -> Mc_util.Relation.t

(** [causality h] is [⇝]: the transitive closure of [→ ∪ ↦ ∪ ⤇], built
    as the closure of {!causality_base} (the covering [⤇p] has the same
    closure as [⤇]). Raises [Invalid_argument] if the result is cyclic
    (the paper restricts attention to histories with acyclic
    causality). *)
val causality : t -> Mc_util.Relation.t

(** [causality_is_acyclic h] checks acyclicity without raising. *)
val causality_is_acyclic : t -> bool

(** {1 Writes} *)

(** [writers_of h loc v] lists ids of write-like operations installing
    value [v] at [loc]. With unique writes there is at most one. *)
val writers_of : t -> Op.location -> Op.value -> int list

(** [ops_at h loc] lists, in ascending id order, the operations that
    write or observe [loc] (those whose {!Op.writes_value} or
    {!Op.reads_value} is at [loc]). The per-location index is built on
    the first call and memoized. *)
val ops_at : t -> Op.location -> int list

(** [cached_relation h key compute] memoizes [compute ()] on the history
    under [key]. Histories are immutable, so derived relations built by
    other layers (e.g. the per-axiom-set closures of
    [Mc_consistency.Lattice]) can be cached here without recomputation. *)
val cached_relation : t -> string -> (unit -> Mc_util.Relation.t) -> Mc_util.Relation.t

(** [memo_restrictions h check] is [check h], computed on the first
    call and memoized on [h]: [Stream.meets_restrictions] keeps its
    verdict here, so the checks of one history run it once. *)
val memo_restrictions : t -> (t -> bool) -> bool

(** [sequential h]: each process's operations, in id order, are each
    invoked after the previous one's response, so no two of a process's
    operations overlap and id order is program order. One pass,
    memoized on [h]. A recorded history numbers operations in response
    order, so it is [sequential] exactly when no process's operations
    overlap. *)
val sequential : t -> bool

val pp : Format.formatter -> t -> unit
