(** The mixed-consistency DSM runtime — the paper's programming model.

    A runtime hosts [procs] DSM nodes on a simulated network. Application
    processes are fibers spawned with {!spawn_process}; inside a fiber the
    operations of the model are available in direct style:

    {[
      Runtime.spawn_process rt 0 (fun p ->
          Runtime.write p "x" 42;
          Runtime.barrier p;
          let v = Runtime.read p ~label:Op.PRAM "x" in
          ...)
    ]}

    Reads are served from the local replica (PRAM view or causal view
    according to the label, Definition 4); writes update the local
    replica and broadcast asynchronously; locks, barriers and awaits
    implement the synchronization orders of Section 3.1 with the
    propagation strategy chosen in {!Config.t}.

    When [config.record] is set, every operation is recorded and
    {!history} returns a {!Mc_history.History.t} that can be fed to the
    checkers in [mc_consistency]. Written values are recorded as unique
    tags so the reads-from relation of the recorded history is exact;
    counter locations (see {!init_counter}) are recorded numerically. *)

type t

(** A handle on one application process (one per DSM node). *)
type proc

(** [create engine ?latency config] builds the runtime on a {!Cost}
    network; [latency] defaults to {!Cost.latency} [()]. Raises
    [Invalid_argument], naming the field, when a [placement] comes with
    [groups] or with [batch_max > 1]. *)
val create : Mc_sim.Engine.t -> ?latency:Mc_net.Latency.t -> Config.t -> t

val engine : t -> Mc_sim.Engine.t
val config : t -> Config.t
val network : t -> Protocol.msg Mc_net.Network.t

(** [proc t i] is the handle for process [i]. *)
val proc : t -> int -> proc

val proc_id : proc -> int

(** [runtime_of_proc p] recovers the runtime a handle belongs to. *)
val runtime_of_proc : proc -> t

(** [spawn_process t i f] spawns the application fiber of process [i]. *)
val spawn_process : t -> int -> (proc -> unit) -> unit

(** [spawn_thread t i f] spawns an additional fiber of process [i]
    sharing its replica — the model's multi-threaded processes
    (Section 3). Operations of concurrent threads overlap, so the
    recorded program order of the process is a partial order. Threads of
    one process must not both join the same (global or subset) barrier
    episode. *)
val spawn_thread : t -> int -> (proc -> unit) -> unit

(** [run t] runs the simulation to completion and returns the final
    virtual time. When [config.check_online] is set the recorder is
    closed at the end of the run (flushing the streaming checker), so
    no further operations may be recorded afterwards. *)
val run : t -> float

(** The streaming consistency checker subscribed to the recorder when
    [config.check_online] is set: every read is validated at response
    time, and the runtime's stability sweeps (at barrier and unlock
    completions, from the replicas' applied vectors) let the checker
    reclaim state for values that are superseded everywhere. *)
val online_checker : t -> Mc_consistency.Online.t option

(** {1 Memory operations} *)

(** [read p ?label loc] returns the current value of [loc] in the view
    selected by [label] (default [Causal]). Non-blocking except in
    demand propagation mode when [loc] has a pending invalidation. *)
val read : proc -> ?label:Mc_history.Op.label -> Mc_history.Op.location -> int

(** [write p loc v] installs [v] at [loc] locally and broadcasts the
    update. Non-blocking. *)
val write : proc -> Mc_history.Op.location -> int -> unit

(** {1 Counter objects (Section 5.3)} *)

(** [init_counter p loc v] initializes an abstract counter. Counter
    locations must only be accessed via [decrement], [await] and
    [read]. *)
val init_counter : proc -> Mc_history.Op.location -> int -> unit

(** [decrement p loc ~amount] atomically subtracts [amount]; decrements
    commute, so concurrent decrements converge without locking. *)
val decrement : proc -> Mc_history.Op.location -> amount:int -> unit

(** {1 Synchronization operations} *)

val read_lock : proc -> Mc_history.Op.lock_name -> unit
val read_unlock : proc -> Mc_history.Op.lock_name -> unit
val write_lock : proc -> Mc_history.Op.lock_name -> unit
val write_unlock : proc -> Mc_history.Op.lock_name -> unit

(** [barrier p] joins the next barrier episode; returns when every
    process has arrived and all pre-barrier updates are applied
    locally (under a placement: received, for the shards [p]
    subscribes to). Arrivals and releases travel a combining tree
    rooted at node 0 at {!barrier_fanout} (see {!Barrier_manager});
    full replication uses the central manager at node 0. *)
val barrier : proc -> unit

(** [barrier_subset p members] joins the next barrier episode of the
    given process subset (Section 3.1.2). The calling process must be a
    member; every member must eventually call it with the same set.
    Raises [Invalid_argument], naming the id, when a member is not a
    process [0 .. procs-1]. *)
val barrier_subset : proc -> int list -> unit

(** [barrier_fanout t] is the fanout of the barrier's combining tree.
    Full replication: [procs], the central manager. Under a placement:
    the number of releases a node can send in one round trip of the
    latency model ([2 * mean latency / Cost.send_cost], 50 for
    {!Cost.latency}, at most [procs]), but at least the placement's
    fanout. So the central manager runs whenever that covers every
    process, and a network whose hops cost less than a send gets the
    placement's fanout. *)
val barrier_fanout : t -> int

(** [barrier_expect t ~proc] is what [proc]'s latest barrier exit waited
    for under a placement: the sorted [(writer, shard, count)] stream
    entries of its release — for each shard [proc] subscribes to, each
    other member's write count at its arrival, where nonzero. [[]]
    under full replication. *)
val barrier_expect : t -> proc:int -> (int * int * int) list

(** [await p loc v] blocks until [loc] holds [v] in the view selected by
    [config.await_label]. *)
val await : proc -> Mc_history.Op.location -> int -> unit

(** [compute p cost] charges [cost] units of local computation time. *)
val compute : proc -> float -> unit

(** {1 Results and statistics} *)

(** [history t] is the recorded history ([config.record] must be set). *)
val history : t -> Mc_history.History.t

(** [peek t ~proc loc] reads the causal view of a replica from outside
    any fiber (for result extraction after [run]); under placement
    routing, where the global causal view is off, the PRAM view. *)
val peek : t -> proc:int -> Mc_history.Op.location -> int

(** [resident_objects t ~proc] is the number of distinct locations
    materialized at [proc]'s replica — under sharded placement, only the
    locations of subscribed shards ever land here (fetched values are
    not cached), the resident-state measure of EXP-SHARD. *)
val resident_objects : t -> proc:int -> int

(** [fetch_count t] is the number of read-miss fetches issued so far
    (sharded placement only; 0 otherwise). *)
val fetch_count : t -> int

(** [wait_summaries t] gives the distribution of blocking time per
    operation kind ("read", "write_lock", "barrier", ...). Backed by the
    [mc_wait_us] histograms of {!metrics}. *)
val wait_summaries : t -> (string * Mc_util.Stats.Summary.t) list

(** [op_counts t] counts operations issued per kind. Backed by the
    [mc_ops_total] counters of {!metrics}. *)
val op_counts : t -> (string * int) list

(** The runtime's metric registry. Always contains the op counters
    ([mc_ops_total{op}]) and wait histograms ([mc_wait_us{op}]); with
    [config.observe] set it additionally carries the engine, network,
    replica-delivery, online-checker, read-staleness
    ([mc_read_staleness_updates]) and outbox-flush
    ([mc_outbox_flush_size]) series. Under sharded placement with
    [config.observe] it further carries the shard-labelled series —
    [mc_shard_fetch_total]/[mc_shard_fetch_us] (demand-fetch round
    trips), [mc_shard_visibility_us]/[mc_shard_visibility_full_us]
    (write routed → applied at one / every subscriber),
    [mc_shard_staleness_updates] (gap-parked updates at read time),
    [mc_shard_gap_depth]/[mc_shard_gap_buffered_total] (replica gap
    buffers), [mc_shard_subscribers] and the placement churn /
    tree-rebuild counters — all labelled per shard or per node, so the
    series count is O(procs + shards) independent of operation count. *)
val metrics : t -> Mc_obs.Metrics.Registry.t

(** The tracer passed in [config.tracer], if any. Under sharded
    placement the trace additionally carries category ["shard"] events
    (a [shard_send] instant at the root, one flow arc per tree hop and a
    [shard_apply] instant per subscriber apply, all keyed by the
    update's (writer, shard, sseq) args) and category ["fetch"] events
    ([fetch_rtt] requester spans paired with request/reply flow arcs by
    a shared [rtt] arg, plus [fetch_serve] instants at the home). *)
val tracer : t -> Mc_obs.Trace.t option

(** {1 Flight recorder (sharded placement)}

    Every routed shard update is tracked root → leaves. With
    [config.observe], a flight counts the update's remote subscriber
    applies for the per-shard visibility histograms and is dropped once
    every subscriber counted at routing has applied it. With a tracer,
    the trace carries the same update's [shard_send] instant, hop arcs
    and [shard_apply] instants (see {!tracer}): [Mc_obs.Report] joins
    them by (writer, shard, sseq), for the visibility rows and for the
    causal paths of the violation audit alike. *)

(** [shard_write_source t ~loc ~value] resolves a recorded (tagged)
    value to the (writer, shard, sseq) stream coordinates of the write
    that produced it, via the checker's shard log (requires
    [config.check_online] or [config.record] with placement; values are
    unique tags, so the answer is unambiguous). *)
val shard_write_source : t -> loc:Mc_history.Op.location -> value:int -> (int * int * int) option
