(** Streaming mixed-consistency checker.

    Validates every memory read at response time against the read rule
    of its label (Def. 2 causal, Def. 3 PRAM, §3.2 group reads, composed
    per Def. 4 mixed consistency) by folding per-family chain clocks
    over the finalization stream of {!Mc_history.Stream}. Produces the
    same failures, verdict-for-verdict, as the offline
    [Lattice.failures h Mixed] — see the differential test suite — while
    keeping only the in-flight operation window plus live writer
    summaries in memory.

    Per finalized operation the cost is O(families × chains) integer
    work, with families = 1 (causal) + procs (PRAM) + registered reader
    groups, i.e. O(procs · chains) per read as required.

    Reader groups must be registered up front (via [~groups] or
    {!groups_of_history}); a group equal to all processes aliases to
    causal and a singleton group to the reader's PRAM family, so only
    the remaining proper groups consume a family slot (max 62 families
    in total). *)

type t

type stats = {
  ops_checked : int;
  reads_checked : int;
  pram_reads : int;
  causal_reads : int;
  group_reads : int;
  fetched_reads : int;  (** reads validated against a fetch snapshot *)
  failure_count : int;
  chains : int;  (** concurrency chains allocated by the engine *)
  max_resident : int;  (** high-water of the engine's in-flight window *)
  live_summaries : int;  (** writer summaries not yet reclaimed *)
}

(** [supports m]: can the streaming engine validate lattice point [m]?
    True for [Causal], [PRAM], [Mixed] and [Group _] (chain-clock
    families) and for [Session _] (decided directly on the reader's own
    per-location read/write timeline, which every path of a session
    relation runs through). False for the sim-time witness points
    ([SC], [Linearizable], [Processor], [Cache], [Slow]), whose total
    write / real-time orders are not incremental here — check those
    offline with {!Lattice.failures}. *)
val supports : Lattice.t -> bool

(** [create ~procs ?groups ?model ()] makes a checker with its own
    {!Mc_history.Stream} engine. [groups] lists the reader groups that
    [Group]-labeled reads may use (order and duplicates irrelevant).
    Without [model] every read is checked at its declared label (the
    seed [Mixed] behavior); with [model] every memory read is checked
    under that single lattice point instead ([Group g] is implicitly
    reader-augmented per read). Raises [Invalid_argument] for
    out-of-range members, empty groups, more than 62 consistency
    families, or a model [supports] rejects. *)
val create : procs:int -> ?groups:int list list -> ?model:Lattice.t -> unit -> t

(** [sink t] adapts the checker for [Recorder.subscribe]: operations are
    validated online as their causal covering past completes. *)
val sink : t -> Mc_history.Sink.t

(** The checker's underlying engine (for window statistics). *)
val engine : t -> Mc_history.Stream.t

(** [check ?groups ?model h] replays a materialized history through a
    fresh checker. When [groups] is omitted the groups are harvested
    from the history's read labels. *)
val check : ?groups:int list list -> ?model:Lattice.t -> Mc_history.History.t -> t

(** Invalid reads seen so far, in ascending id order — after a full
    replay, equal to [Lattice.failures h Mixed], or under a uniform
    [~model] to [Lattice.failures h model]. *)
val failures : t -> Lattice.failure list

val is_consistent : t -> bool
val stats : t -> stats

(** {1 Partial-view checking (sharded mode)}

    On a partially-replicated node the chain-clock read rule does not
    describe reads of {e unsubscribed} locations: the replica holds no
    view of them and the value comes from a demand fetch against the
    shard home's snapshot. The runtime announces each such read with
    {!note_fetch} immediately before recording it; the checker then
    validates that read by snapshot membership instead of the family
    read rule. Reads of subscribed locations take the unchanged code
    path, so verdicts and diagnostics on them are identical to the
    full-replication checker by construction (the differential suite in
    [test/test_shard.ml] exercises this). *)

(** [note_fetch t ~proc ~loc ~admissible ~zero_ok] registers that the
    next recorded read of [loc] by [proc] was served by a fetch whose
    snapshot admits exactly the values [admissible] (per writer counted
    in the snapshot clock, that writer's latest write to [loc] within
    it); [zero_ok] states that no write to [loc] lies inside the
    snapshot, so the virtual initial value 0 is the valid answer. Must
    be called with no intervening operation of [proc] before the read
    is recorded. *)
val note_fetch :
  t ->
  proc:int ->
  loc:Mc_history.Op.location ->
  admissible:Mc_history.Op.value list ->
  zero_ok:bool ->
  unit

(** [fetched_ids t] is the ascending list of read ids that were
    validated against fetch snapshots — the reads to exclude when
    comparing against an offline full-replication checker, whose
    global-view read rule can legitimately disagree on them (e.g. a
    home lagging a writer after a barrier that did not cover it). *)
val fetched_ids : t -> int list

(** [attach_metrics t reg] registers callback gauges ([mc_online_*]) over
    {!stats} — sampled only at snapshot time, so attaching costs nothing
    per checked operation. *)
val attach_metrics : t -> Mc_obs.Metrics.Registry.t -> unit

(** Distinct (sorted) groups appearing in [Group] read labels of [h]. *)
val groups_of_history : Mc_history.History.t -> int list list
