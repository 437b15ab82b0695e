(** Configuration of the mixed-consistency DSM runtime. *)

(** How updates made inside a critical section reach the next lock holder
    (Section 6). [Eager]: the releaser broadcasts a flush and waits for
    acknowledgements from every node before the unlock takes effect.
    [Lazy]: the unlock carries the releaser's update counts to the lock
    manager; the next grantee waits until it has applied that many
    updates before entering the critical section. [Demand]: the unlock
    carries the write-set; the grantee enters immediately and only reads
    of the written locations block until the updates arrive. [Entry]:
    entry consistency in the style of Midway (Section 2: "explicitly
    associating synchronization variables with critical sections ...
    can be implemented more efficiently"): updates made inside a write
    critical section are {e not} broadcast at all — their values travel
    with the unlock to the lock manager and ride the next grant, so the
    guarded variables cost O(1) messages per hand-off instead of a
    broadcast per write. Guarded variables must only be accessed under
    their lock (the entry-consistent discipline of Corollary 1);
    accesses outside critical sections see stale values. *)
type propagation = Eager | Lazy | Demand | Entry

type t = {
  procs : int;  (** number of DSM nodes / application processes *)
  propagation : propagation;
  record : bool;
      (** record every operation into a {!Mc_history.Recorder} for
          offline consistency checking *)
  check_online : bool;
      (** validate every read at response time with the streaming
          checker ([Mc_consistency.Online]) subscribed to the recorder;
          the runtime forwards stability notifications (values
          superseded at every replica) so checker memory is bounded by
          the in-flight window. Independent of [record]: with [record]
          false the recorder runs in streaming-only mode and
          [Runtime.history] is unavailable. *)
  check_model : Mc_consistency.Lattice.t option;
      (** lattice point the online checker validates every memory read
          under, instead of each read's declared label. Only points with
          [Mc_consistency.Online.supports] may be used here (the
          witness-based ones need the offline [Lattice.failures]).
          Ignored unless [check_online] is set. *)
  await_label : Mc_history.Op.label;
      (** which view an await polls: [Causal] (default; satisfies the
          await only once the witnessed write is causally applied) or
          [PRAM] (the paper's busy-wait of PRAM reads) *)
  timestamped_updates : bool;
      (** when true, updates carry a vector timestamp
          ([8 * procs] extra bytes). Section 6 notes the timestamp can be
          omitted when every read that follows a write is PRAM — set this
          to false for PRAM-consistent programs (Fig. 2, Fig. 4). *)
  groups : int list list;
      (** process groups for which every replica maintains a group view,
          enabling [Group]-labelled reads (the Section-3.2 spectrum).
          Full replication only: [Runtime.create] rejects groups with a
          [placement]. *)
  placement : Mc_placement.Placement.t option;
      (** subscriber routing, Section 6's alternative to a broadcast per
          update; [None] (the default) is full replication. Locations map
          to shards and shards to subscriber sets ({!Mc_placement}; an
          [Explicit] map states a program's access pattern). A write
          travels a per-(writer, shard) tree to subscribers only, replicas
          keep state only for subscribed shards, and reads of other
          locations fetch from the shard's home. A [Causal] read sees its
          shard's causal view; cross-shard ordering comes only from
          barriers, which switch to Section 6's update-count scheme, and
          awaits poll the PRAM view. Locks and [Group] reads are not
          available, and writes need a subscription; [Runtime.create]
          rejects [groups] and [batch_max > 1] with a placement. *)
  batch_max : int;
      (** maximum number of consecutive same-writer updates coalesced
          into one {!Protocol.Update_batch} wire message. [1] (the
          default) disables batching — every write broadcasts its own
          update message, the seed behavior. Batching only applies to
          full replication: under [placement] each update goes down its
          own shard's tree, and [Runtime.create] rejects
          [batch_max > 1]. *)
  batch_window : float;
      (** upper bound, in virtual time, on how long the first buffered
          update may wait before the outgoing batch is flushed (batches
          are also flushed when [batch_max] is reached and before every
          synchronization operation). Only meaningful when
          [batch_max > 1]. *)
  observe : bool;
      (** attach the full {!Mc_obs} metric set — engine, network,
          replica-delivery, online-checker and staleness series — to the
          runtime's registry. When false (the default) the runtime still
          maintains its base op counters and wait histograms (the
          [wait_summaries]/[op_counts] API), but the hot paths carry no
          extra instrumentation. *)
  tracer : Mc_obs.Trace.t option;
      (** when set, the runtime emits one span per recorded operation,
          instants for sync epochs, and message send→deliver flow arcs
          into this tracer, keyed by sim time. Independent of
          [observe]. *)
}

val default : procs:int -> t

val pp_propagation : Format.formatter -> propagation -> unit
val propagation_to_string : propagation -> string
