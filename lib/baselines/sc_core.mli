(** The client layer both sequentially consistent baselines share.

    A baseline memory ({!Sc_central}, {!Sc_invalidate}) supplies only how
    one client loads, stores, decrements and awaits a location, and the
    messages its own protocol exchanges. This core supplies the rest:

    - the {!Mc_dsm.Api.t} record, charging {!Mc_dsm.Cost.op_cost} per
      operation, recording each operation's blocking span (written values
      as unique tags, counters numerically) and its blocking time per
      operation kind;
    - the one-outstanding-request suspension of every client;
    - locks and barriers: client operations plus a central manager whose
      grants follow {!Mc_dsm.Lock_arbiter}, so an unlock by a non-holder
      raises [Invalid_argument] as it does in the mixed runtime;
    - the {!Mc_dsm.Cost} network and its statistics. *)

(** A core whose memory exchanges messages of type ['m]; the core adds
    the synchronization messages every baseline exchanges with its
    manager. *)
type 'm t

(** [create engine ~name ~record ~procs ~server ~kind] builds the core
    for client processes [0 .. procs-1]. With [server], node [procs] is a
    dedicated server that runs the lock and barrier manager; otherwise
    node 0 does. [name] prefixes error messages; [kind] names the
    memory's own messages in the network statistics. *)
val create :
  Mc_sim.Engine.t ->
  name:string ->
  record:bool ->
  procs:int ->
  server:bool ->
  kind:('m -> string) ->
  'm t

(** [serve t handle] installs every node's delivery handler: the
    memory's own messages go to [handle node m], synchronization requests
    to the manager, synchronization replies to the waiting client. *)
val serve : 'm t -> (int -> 'm -> unit) -> unit

val engine : 'm t -> Mc_sim.Engine.t
val procs : 'm t -> int

(** [send t ~src ~dst m] transmits one of the memory's messages. *)
val send : 'm t -> src:int -> dst:int -> 'm -> unit

(** [call t client ~dst m] sends request [m] and suspends [client] until
    {!resume} hands it the reply. A client has at most one outstanding
    request. *)
val call : 'm t -> int -> dst:int -> 'm -> 'm

(** [resume t client m] completes [client]'s outstanding request with
    reply [m]. *)
val resume : 'm t -> int -> 'm -> unit

(** How one client process accesses memory; each function blocks until
    the operation has taken effect. *)
type memory = {
  load : Mc_history.Op.location -> int * int;  (** (numeric, tag) *)
  store : Mc_history.Op.location -> numeric:int -> tag:int -> unit;
  decrement : Mc_history.Op.location -> amount:int -> int;
      (** returns the value before the decrement *)
  await : Mc_history.Op.location -> int -> int * int;
      (** returns the (numeric, tag) that satisfied the await *)
}

(** [spawn t ~fiber i memory f] spawns client [i] (fiber name
    [fiber-client-i]) running [f] over [memory]. *)
val spawn : 'm t -> fiber:string -> int -> memory -> (Mc_dsm.Api.t -> unit) -> unit

val run : 'm t -> float
val history : 'm t -> Mc_history.History.t
val messages_sent : 'm t -> int
val bytes_sent : 'm t -> int
val wait_summaries : 'm t -> (string * Mc_util.Stats.Summary.t) list

(** The interface both baselines export, so applications and experiments
    drive either one the same way as the mixed runtime. *)
module type MEMORY = sig
  type t

  val create : Mc_sim.Engine.t -> ?record:bool -> procs:int -> unit -> t

  (** [spawn t i f] spawns client process [i]. *)
  val spawn : t -> int -> (Mc_dsm.Api.t -> unit) -> unit

  (** [run t] runs the simulation to completion and returns its end
      time. *)
  val run : t -> float

  (** [history t] is the recorded history (requires [record:true]). *)
  val history : t -> Mc_history.History.t

  val messages_sent : t -> int
  val bytes_sent : t -> int

  (** [wait_summaries t] gives blocking time per operation kind. *)
  val wait_summaries : t -> (string * Mc_util.Stats.Summary.t) list
end
