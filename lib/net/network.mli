(** Simulated message-passing network with FIFO point-to-point channels.

    This is the transport assumed by Section 6 of the paper ("We assume a
    message passing system with FIFO communication channels"). Channels
    preserve per-(src, dst) order even under randomized latencies; across
    different channels messages may arrive in any order.

    Each directed link is one channel, and FIFO holds by construction:
    - A message's delivery time is its departure plus its latency,
      clamped up to the time of the message sent before it on the link
      if that one is still in flight.
    - The link holds its messages in flight in send order, each with its
      delivery time and the engine sequence number it drew when sent
      ({!Mc_sim.Engine.reserve}). Only the head, the oldest, has an
      engine event. When it fires, the link schedules the next message
      at that message's own time and sequence number
      ({!Mc_sim.Engine.schedule_at}), then delivers the head.
    - So every message fires exactly where an event scheduled at its
      send would: a message clamped to its predecessor's time still
      comes before the zero-delay events scheduled between the two
      sends. A message due when it is sent (no latency, no sender
      occupancy) is delivered as an event of its own, after the events
      already due then, like a loopback.
    - A burst on one link keeps one engine event pending, not one per
      message.

    Messages are delivered by invoking the destination node's registered
    handler as a plain event (handlers may resume blocked fibers but must
    not themselves suspend).

    A link's state (its in-flight queue and pause list) is created the
    first time the link is used, by a send or by
    {!pause_link}/{!resume_link}, so a network costs O(nodes + links
    used), never O(nodes^2). *)

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
    statistics. Raises [Invalid_argument] when the latency model gives a
    latency that would deliver the message in the past. *)
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
    queue up and are released, still in FIFO order, by [resume_link].
    A held message is not yet sent: [resume_link] transmits each in
    turn, counting it then and drawing its departure and latency at the
    resume time, behind any message still in flight on the link.
    Messages in flight when the link is paused are delivered as usual.
    Either may be called on a link that has not carried a message yet.
    Used by tests to force extreme reorderings between different
    channels. *)
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
