(** The cost model every compared memory system runs under: the mixed
    runtime ({!Runtime}) and both sequentially consistent baselines
    ([Mc_baselines]) charge the same operation cost, build the same
    network and size messages the same way, so the experiments compare
    protocols and not parameters. Times are in µs of virtual time. *)

(** virtual-time cost charged locally to every memory or
    synchronization operation: 0.1 µs *)
val op_cost : float

(** per-message sender occupancy (LogP "o"), which makes broadcasts cost
    proportionally to fan-out: 2 µs *)
val send_cost : float

(** per-byte transmission time (inverse bandwidth): 0.02 µs/B *)
val byte_cost : float

(** modelled wire size of one update message: 64 B (the runtime adds a
    vector timestamp when [Config.timestamped_updates] is set) *)
val update_bytes : int

(** modelled wire size of one control message: 32 B (plus a dependency
    clock on lock and barrier messages) *)
val control_bytes : int

(** [latency ()] is a fresh link latency model: uniform in 30–70 µs,
    drawn from a generator seeded [0xC0FFEE], so every run that does
    not pass its own model sees the same delays. *)
val latency : unit -> Mc_net.Latency.t

(** [network engine ~nodes ?latency ()] is a network of [nodes]
    endpoints charging {!send_cost} and {!byte_cost}, with link delays
    from [latency] (default {!latency} [()]). *)
val network :
  Mc_sim.Engine.t -> nodes:int -> ?latency:Mc_net.Latency.t -> unit -> 'msg Mc_net.Network.t
