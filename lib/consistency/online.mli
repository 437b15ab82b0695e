(** Streaming mixed-consistency checker.

    Validates every memory read at response time against the read rule
    of its label (Def. 2 causal, Def. 3 PRAM, §3.2 group reads, composed
    per Def. 4 mixed consistency) by folding per-family chain clocks
    over the finalization stream of {!Mc_history.Stream}. On a history
    within the stream's restrictions
    ({!Mc_history.Stream.meets_restrictions}) it produces the same
    failures, verdict-for-verdict, as the offline closures of {!Lattice}
    at Mixed — see the differential test suites — while keeping only
    the in-flight operation window plus live writer summaries in
    memory. One checker can validate every read at several lattice
    points at once, each with its own failure list, over one stream:
    [Lattice.failures_at] is one replay of this checker at all the
    streamable points it is asked for on such a history.

    Writer summaries are reclaimed through stability notifications: a
    dead value (no operation will read it again, and every reader of it
    has finalized) loses its summaries and their follower lists, and a
    dead initial value its location's stamps. In a live run the
    runtime's stability sweeps send them; a replay ({!check}) sends one
    after the last reader of each value, and for a value nobody reads
    after its writer, so a replayed history ends with no live summary.

    A session point decides a read on its process's own reads and
    writes of the location in finalization order. That is program order
    only while the process's operations do not overlap, so on a process
    with overlapping operations (two fibers of one process) the session
    verdicts, live or replayed, may differ from the closures'.
    [Lattice.failures_at] replays session points only on histories that
    are {!Mc_history.History.sequential}.

    Lattice points and failures are {!Model}'s types, which {!Lattice}
    re-exports: a [Lattice.t] is a [Model.t].

    Per finalized operation the dense work covers the operation's own
    families only — causal, its process's PRAM family and the registered
    groups containing its process — at O(chains) integer work each; every
    other family is answered from the operation's program-order clock and
    the member clocks its sync and reads-from edges brought in. A read
    additionally scans the writer summaries of its value plus the
    write-like followers and its own process's reads that carry another
    value. No bound on the number of processes or families applies.
    An operation's clocks are its state on the stream ({!clocks}), so
    the checker finds an in-edge's source through the edge and keeps no
    table of operations; per-location state is one lookup per
    operation.

    Reader groups must be registered up front (via [~groups] or
    {!groups_of_history}); a group equal to all processes aliases to
    causal and a singleton group to the reader's PRAM family. *)

type t

(** An operation's retained chain clocks: the checker's state on the
    stream. *)
type clocks

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
    write / real-time orders are not incremental here; [Lattice.failures]
    checks those with closures. *)
val supports : Model.t -> bool

(** [create ~procs ?groups ?points ()] makes a checker with its own
    {!Mc_history.Stream} engine. [groups] lists the reader groups that
    [Group]-labeled reads may use (order and duplicates irrelevant).
    Every memory read is checked at each of [points] (default
    [[Mixed]]): at [Mixed] under its declared label, at any other point
    under that point's rule whatever its label ([Group g] is implicitly
    reader-augmented per read); the points share one stream and one set
    of clock families. Raises [Invalid_argument] for a non-positive
    [procs], an empty [points], out-of-range members, empty groups, or
    a point [supports] rejects. *)
val create : procs:int -> ?groups:int list list -> ?points:Model.t list -> unit -> t

(** [sink t] adapts the checker for [Recorder.subscribe]: operations are
    validated online as their causal covering past completes. *)
val sink : t -> Mc_history.Sink.t

(** The checker's underlying engine (for window statistics). *)
val engine : t -> clocks Mc_history.Stream.t

(** [check ?groups ?points h] replays a materialized history through a
    fresh checker ({!Mc_history.Stream.replay}, which announces each
    value dead after its last reader, or after its writer when nothing
    reads it, so the summaries are reclaimed as in a live run). When
    [groups] is omitted the groups are harvested from the history's read
    labels. *)
val check : ?groups:int list list -> ?points:Model.t list -> Mc_history.History.t -> t

(** Invalid reads seen so far at the first point, in ascending id order
    — after a full replay of a history within the stream's
    restrictions, equal to the closure engine's failures at that point
    ({!Lattice.verdict} read by read). *)
val failures : t -> Model.failure list

(** [failures] at every point, in the order of [points]. *)
val point_failures : t -> Model.failure list list

(** No failure at the first point. *)
val is_consistent : t -> bool

(** Statistics; [failure_count] counts the first point's failures. *)
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
