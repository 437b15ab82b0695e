(** Simulated message-passing network with FIFO point-to-point channels.

    This is the transport assumed by Section 6 of the paper ("We assume a
    message passing system with FIFO communication channels"). Channels
    preserve per-(src, dst) order even under randomized latencies; across
    different channels messages may arrive in any order.

    Messages are delivered by invoking the destination node's registered
    handler as a plain event (handlers may resume blocked fibers but must
    not themselves suspend). *)

type 'msg t

(** [create engine ~nodes ~latency ?send_cost ?byte_cost] builds a
    network of [nodes] endpoints (ids [0 .. nodes-1]).

    [send_cost] (default 0) is the per-message sender occupancy (the
    LogP "o" overhead): consecutive sends from one node serialize, so a
    broadcast to [k] peers occupies the sender for [k * send_cost].
    [byte_cost] (default 0) adds [bytes * byte_cost] to each message's
    transmission time, modelling finite bandwidth. *)
val create :
  Mc_sim.Engine.t ->
  nodes:int ->
  latency:Latency.t ->
  ?send_cost:float ->
  ?byte_cost:float ->
  unit ->
  'msg t

val nodes : 'msg t -> int
val engine : 'msg t -> Mc_sim.Engine.t

(** [set_handler t node f] installs the delivery handler for [node].
    [f ~src msg] runs once per message, in channel-FIFO order. *)
val set_handler : 'msg t -> int -> (src:int -> 'msg -> unit) -> unit

(** [send t ~src ~dst ?bytes ?kind msg] transmits a message. Self-sends
    ([src = dst]) are delivered immediately without counting as network
    traffic. [bytes] (default 64) and [kind] (default "msg") feed the
    statistics. *)
val send : 'msg t -> src:int -> dst:int -> ?bytes:int -> ?kind:string -> 'msg -> unit

(** [broadcast t ~src ?bytes ?kind msg] sends to every node except
    [src]. *)
val broadcast : 'msg t -> src:int -> ?bytes:int -> ?kind:string -> 'msg -> unit

(** [multicast t ~src ~dsts ?bytes ?kind msg] sends one copy of [msg] to
    each destination in [dsts], skipping [src]; the payload is shared
    across the fan-out (one allocation, one per-destination send). Used
    by the shard dissemination trees. *)
val multicast :
  'msg t -> src:int -> dsts:int list -> ?bytes:int -> ?kind:string -> 'msg -> unit

(** [pause_link t ~src ~dst] holds messages on one directed link; they
    queue up and are released, still in FIFO order, by
    [resume_link]. Used by tests to force extreme reorderings between
    different channels. *)
val pause_link : 'msg t -> src:int -> dst:int -> unit

val resume_link : 'msg t -> src:int -> dst:int -> unit

(** Statistics, cumulative since creation. *)

val messages_sent : 'msg t -> int
val bytes_sent : 'msg t -> int

(** [messages_by_kind t] lists (kind, count) pairs sorted by kind. *)
val messages_by_kind : 'msg t -> (string * int) list

(** [latency_summary t] summarizes delivered-message latencies. *)
val latency_summary : 'msg t -> Mc_util.Stats.Summary.t

(** [reset_stats t] zeroes all counters (the topology and handlers are
    kept). *)
val reset_stats : 'msg t -> unit

(** [attach_metrics t reg] registers [mc_net_messages_total] (overall and
    per-[kind] labelled), [mc_net_bytes_total] and [mc_net_latency_us] in
    [reg] and updates them on every transmit. *)
val attach_metrics : 'msg t -> Mc_obs.Metrics.Registry.t -> unit

(** Per-transmit callback: fires once per non-local message with its
    departure ([sent]) and delivery ([recv]) sim times, a unique
    sequence number and the message itself — the hook the tracer uses
    to draw send→deliver arcs and to attribute shard-update hops to
    their (writer, shard, seq) stream. Loopback sends bypass it, as do
    messages held on a paused link (the callback fires when they are
    actually transmitted). *)
type 'msg observer =
  src:int -> dst:int -> bytes:int -> kind:string -> seq:int -> sent:float ->
  recv:float -> 'msg -> unit

val set_observer : 'msg t -> 'msg observer -> unit
