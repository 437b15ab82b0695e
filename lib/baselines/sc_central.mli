(** Sequentially consistent baseline: a central memory server.

    All memory state lives on a dedicated server node (node id [procs]),
    which also runs the lock and barrier manager; every operation is a
    blocking request/reply round trip. Each client has at most one
    outstanding operation and every location is serialized at the server,
    so the memory is linearizable and therefore sequentially consistent —
    at the cost of the access latency the paper's introduction attributes
    to strong consistency. Awaits wait at the server and fire when a
    write or decrement makes them true.

    Exposes the same {!Mc_dsm.Api.t} operations as the mixed runtime so
    applications run unchanged. *)

include Sc_core.MEMORY

(** [peek t loc] reads the server's memory directly (after [run]). *)
val peek : t -> Mc_history.Op.location -> int
