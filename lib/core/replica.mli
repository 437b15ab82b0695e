(** Per-node replicated store with dual consistency views (Section 6).

    Every node keeps a full copy of the shared memory in two views: the
    {e PRAM view}, to which incoming updates are applied as soon as they
    are received (channels are FIFO, so per-writer order is preserved),
    and the {e causal view}, to which updates are applied in causal order
    using vector-timestamp delivery. Reads of either label return local
    values; they differ only in which view they consult.

    Each installed value carries a unique [tag] used for exact reads-from
    recording; decrements adjust the numeric value without changing the
    tag (counter objects are only ever read through awaits and
    decrements).

    Causal delivery runs one engine for the main causal view, every
    group view and every subscribed shard: each keeps a per-writer
    buffer and applies only the head [useq = next(w)] of each writer
    (channels are FIFO, so nothing behind the head can be deliverable),
    making deliverability an O(procs) check of one update rather than a
    rescan of everything pending. A blocked head is parked under the
    first clock entry still gating it and re-examined exactly when that
    entry advances. Updates apply in the order of the seed's
    rescan-everything pending list — by (pass, arrival) — which
    [test/oracle.ml] keeps as the differential oracle. *)

type t

(** [create engine ~id ~n ~groups] builds a replica. [groups] lists the
    process groups for which a {e group view} is maintained (the
    Section-3.2 spectrum between PRAM and causal): a group view applies
    an update once the update's dependencies on group members are applied
    to the view and its dependencies on non-members have been received. Group reads are only
    meaningful at replicas whose process belongs to the group. *)
val create :
  Mc_sim.Engine.t ->
  id:int ->
  n:int ->
  ?groups:int list list ->
  ?causal_delivery:bool ->
  unit ->
  t
(** [causal_delivery:false] disables the causal view and group views —
    used under placement routing, where a node receives only its
    subscribed shards' updates, so writer sequences arrive with gaps and
    only the PRAM view and the per-shard views below are meaningful. *)

val id : t -> int

(** [applied t] is the vector of causally-applied update counts per
    writer — the node's vector timestamp. Returns a copy. *)
val applied : t -> int array

(** [received t] is the per-writer received-update counts (equal to the
    PRAM view's application counts). Returns a copy. *)
val received : t -> int array

(** {1 Local operations} *)

(** [local_write t ~loc ~numeric ~tag] applies a write locally to both
    views and returns the update to broadcast. *)
val local_write :
  t -> loc:Mc_history.Op.location -> numeric:int -> tag:int -> Protocol.update

(** [local_dec t ~loc ~amount] applies a decrement locally and returns
    the update to broadcast along with the pre-decrement value of the
    causal view. *)
val local_dec :
  t -> loc:Mc_history.Op.location -> amount:int -> Protocol.update * int

(** {1 Remote updates} *)

(** [receive t update] ingests an update from the network: applies it to
    the PRAM view immediately and to the causal view once deliverable,
    then wakes any watchers whose condition became true. *)
val receive : t -> Protocol.update -> unit

(** [receive_many t updates] ingests a decoded {!Protocol.Update_batch}:
    every update is processed as by {!receive}, but watchers are woken
    once, after the whole batch — one wire message, one wake sweep. *)
val receive_many : t -> Protocol.update list -> unit

(** [pending_count t] is the number of received updates still awaiting
    causal delivery. *)
val pending_count : t -> int

(** {1 Reading} *)

(** [causal_read t loc] is [(numeric, tag)] from the causal view. *)
val causal_read : t -> Mc_history.Op.location -> int * int

(** [pram_read t loc] is [(numeric, tag)] from the PRAM view. *)
val pram_read : t -> Mc_history.Op.location -> int * int

(** [group_read t ~group loc] reads the registered group view. Raises
    [Invalid_argument] if the group was not passed to {!create}. *)
val group_read : t -> group:int list -> Mc_history.Op.location -> int * int

(** {1 Dependency gating} *)

(** [dep_satisfied t dep] tests [applied >= dep] pointwise. *)
val dep_satisfied : t -> int array -> bool

(** [install_direct t ~loc ~numeric ~tag] installs a value that arrived
    out of band (entry-mode lock grants) into every view, without
    touching the update counts. *)
val install_direct : t -> loc:Mc_history.Op.location -> numeric:int -> tag:int -> unit

(** [mark_invalid t loc dep] records a demand-mode obligation: reads of
    [loc] must block until [dep] is applied. Merged pointwise with any
    existing obligation. *)
val mark_invalid : t -> Mc_history.Op.location -> int array -> unit

(** [location_blocked t loc] is true while an unmet obligation on [loc]
    exists. *)
val location_blocked : t -> Mc_history.Op.location -> bool

(** {1 Blocking} *)

(** What a watcher's predicate depends on, so the replica re-evaluates
    it only when that part of its state changes:
    [Loc l] — the value or demand-obligation of location [l]; [Clock] —
    the applied/received counts; [Any] — re-evaluated on every change
    (always safe, the default). A hint must be {e conservative}: the
    predicate may only flip when the hinted state changes. *)
type hint = Loc of Mc_history.Op.location | Clock | Any

(** [wait_until t ?hint pred] suspends the calling fiber until [pred ()]
    holds. The predicate is re-evaluated per [hint] (default [Any]:
    after every state change of the replica). Returns immediately if
    already true. *)
val wait_until : t -> ?hint:hint -> (unit -> bool) -> unit

(** [notify t] re-evaluates every watcher predicate regardless of hints;
    exposed for the runtime to call after non-replica state changes
    (e.g. lock grants). *)
val notify : t -> unit

(** [attach_metrics t reg] registers delivery metrics in [reg] and starts
    updating them: [mc_delivery_delay_us] (receipt → causal application,
    simulated µs), [mc_delivery_queue_depth] (gauge, labelled by [node]),
    [mc_update_batch_size] (updates per received batch),
    [mc_resident_objects{node}] (callback gauge, sampled at snapshot
    time), and — in sharded mode — the per-shard gap-buffer series
    [mc_shard_gap_depth{shard}] (gauge with high water, shared across
    replicas) and [mc_shard_gap_buffered_total{shard}] (updates that
    arrived ahead of a sequence gap and had to wait). *)
val attach_metrics : t -> Mc_obs.Metrics.Registry.t -> unit

(** {1 Sharded (partially-replicated) mode}

    The substrate is the gap-tolerant [causal_delivery:false] mode above:
    the global causal view is off, and the PRAM view absorbs whatever
    subset of the update stream this node receives. On top of it the
    replica keeps, {e per subscribed shard}, a causal view ordered by the
    shard-scoped delta clocks of {!Protocol.shard_update} — partition
    consistency: per-writer FIFO plus causality hold within each shard,
    and cross-shard ordering is recovered by barrier count vectors.

    Writes are only permitted to subscribed shards ([Invalid_argument]
    otherwise — a placement discipline analogous to entry consistency's
    lock discipline), which guarantees read-your-writes from the local
    PRAM view and means every location a node ever fetches is one it
    never wrote. *)

(** [subscribe_shard t ~shard ()] starts maintaining per-shard state.
    [clock] and [values] install a state-transfer snapshot: the per-writer
    applied counts and the [(loc, numeric, tag)] contents of the shard
    view at the donor. Re-subscribing replaces any previous state. *)
val subscribe_shard :
  t ->
  ?clock:(int * int) list ->
  ?values:(Mc_history.Op.location * int * int) list ->
  shard:int ->
  unit ->
  unit

(** [unsubscribe_shard t ~shard] drops the shard's view, applied counts
    and pending queue; subsequent updates of the shard are ignored. *)
val unsubscribe_shard : t -> shard:int -> unit

val shard_subscribed : t -> shard:int -> bool

(** [shard_write t ~shard ~loc ~numeric ~tag] applies a write to the PRAM
    view and the shard's causal view, and returns the stamped update to
    route down the shard's dissemination tree. Raises [Invalid_argument]
    if [shard] is not subscribed. *)
val shard_write :
  t ->
  shard:int ->
  loc:Mc_history.Op.location ->
  numeric:int ->
  tag:int ->
  Protocol.shard_update

(** [shard_dec t ~shard ~loc ~amount] is the decrement counterpart;
    also returns the pre-decrement value of the shard view. *)
val shard_dec :
  t ->
  shard:int ->
  loc:Mc_history.Op.location ->
  amount:int ->
  Protocol.shard_update * int

(** [shard_receive t su] ingests a shard update from the network: applied
    to the PRAM view immediately, and to the shard's causal view once its
    shard-scoped delta clock is satisfied. Updates of unsubscribed shards
    are dropped silently — the gap tolerance that makes partial
    replication sound — as are updates already covered by the snapshot
    clock installed at subscription time (their payloads are reflected in
    the snapshot values). *)
val shard_receive : t -> Protocol.shard_update -> unit

(** [shard_read t ~shard loc] is [(numeric, tag)] from the shard's causal
    view. Raises [Invalid_argument] if [shard] is not subscribed. *)
val shard_read : t -> shard:int -> Mc_history.Op.location -> int * int

(** [shard_clock t ~shard] is the sorted [(writer, applied)] list of the
    shard's causal view — the snapshot clock sent with fetch replies. *)
val shard_clock : t -> shard:int -> (int * int) list

(** [resident_objects t] is the number of distinct locations materialized
    at this node — the resident-state measure of EXP-SHARD. *)
val resident_objects : t -> int

(** [shard_queue_depths t] is the sorted [(shard, pending)] list of
    per-shard delivery queue depths. *)
val shard_queue_depths : t -> (int * int) list

(** [shard_pending_len t ~shard] is the number of updates of [shard]
    parked on a sequence gap ([0] when not subscribed) — the per-shard
    staleness proxy sampled by read instrumentation. *)
val shard_pending_len : t -> shard:int -> int

(** [set_shard_apply_observer t f] installs a callback fired after every
    {e remote} shard update is applied to its shard view (self-writes are
    excluded), with the update's stream coordinates. The runtime uses it
    to measure write-visibility latency per shard; when unset the cost is
    one option check per apply. *)
val set_shard_apply_observer :
  t -> (shard:int -> writer:int -> sseq:int -> unit) -> unit

