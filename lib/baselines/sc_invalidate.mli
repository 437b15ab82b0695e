(** Sequentially consistent baseline: a directory-based write-invalidate
    protocol (MSI-style), the style of DSM coherence popularized by Li
    and Hudak's shared virtual memory and assumed by the hardware-DSM
    systems the paper cites.

    Every location has a home node ([hash loc mod procs]) holding its
    directory entry: the current owner (modified copy) or the set of
    sharers. Reads hit locally on a valid cached copy; a read miss
    fetches through the home (downgrading the owner to shared); a write
    acquires exclusive ownership by invalidating all other copies.
    Transactions on a location serialize at its home and clients block on
    each operation, so the memory is linearizable, hence sequentially
    consistent. Reads that hit in the cache are fast — the contrast with
    {!Sc_central} shows what caching buys, and the contrast with the
    mixed runtime shows what weak consistency buys on write-heavy
    sharing.

    Locks and barriers use the central manager of {!Sc_core} at node 0;
    awaits poll their location through the cache every 10 µs
    (invalidations make the next poll fetch fresh data). *)

include Sc_core.MEMORY

(** [peek t loc] reads the coherent value of [loc] (after [run]): the
    owner's copy if one exists, the home memory otherwise. *)
val peek : t -> Mc_history.Op.location -> int

(** [cache_hits t], [cache_misses t]: read path statistics. *)
val cache_hits : t -> int

val cache_misses : t -> int
