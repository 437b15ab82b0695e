(** Vector-clock happens-before derived from the causality relation [⇝].

    [History.causality] materializes the full transitive closure of
    program order ∪ reads-from ∪ synchronization order — an n×n bit
    matrix, O(n²) space and at least O(n²/word) time. The race detector only ever asks "are these two
    operations ⇝-related?", which vector clocks answer in O(1) after an
    O((n + e)·c) construction pass, where [e] is the number of covering
    edges and [c] the number of program-order chains (= the process count
    for sequential processes).

    Because local histories are partial orders (a process's fibers may
    overlap non-blocking operations), plain per-process vector clocks are
    unsound. Each process's operations are first decomposed into {e
    chains} — maximal sequences totally ordered by program order — and
    clocks are indexed by chain. For the common sequential case this
    degenerates to one chain per process.

    Barrier episodes are modelled with two virtual nodes (one joining
    every participant's pre-barrier state, one fanning the joint state
    back out), so an episode costs O(members) edges instead of the
    quadratic edge set of [History.barrier_order].

    [of_history] and the queries agree exactly with [History.causality]
    on every pair of operations. The history must be well formed enough
    for causality to be acyclic; otherwise [of_history] raises
    [Invalid_argument]. *)

type t

val of_history : Mc_history.History.t -> t

(** [hb t i j] is true when operation [i] strictly precedes [j] in the
    causality relation. O(1). *)
val hb : t -> int -> int -> bool

(** [related t i j] is [hb t i j || hb t j i]. *)
val related : t -> int -> int -> bool

(** [concurrent t i j] — distinct and unrelated in either direction. *)
val concurrent : t -> int -> int -> bool

(** Number of program-order chains (diagnostic; equals the process count
    when every process is sequential). *)
val chains : t -> int
