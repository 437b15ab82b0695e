(** One run of an application on any of the three memory systems: the
    mixed runtime, {!Sc_central} or {!Sc_invalidate}. [mcdsm] and the
    bench run every application through {!run}, so a program compared
    across memories (Sections 1 and 7) takes one path to its numbers. *)

type t = Mixed | Central | Invalidate

type result = {
  time : float;  (** sim time at the end of the run, µs *)
  messages : int;
  bytes : int;
  waits : (string * Mc_util.Stats.Summary.t) list;
      (** blocking time per operation kind *)
  history : Mc_history.History.t option;  (** when [config.record] *)
  checker : Mc_consistency.Online.t option;
      (** the streaming checker, when [config.check_online] *)
  runtime : Mc_dsm.Runtime.t option;  (** the mixed runtime *)
}

(** [run ?latency memory config launch] builds the memory, hands
    [launch] its spawn function ([spawn i f] starts process [i]), runs
    the simulation to completion and returns [launch]'s result with the
    run's.

    The mixed runtime takes [config] whole, and [latency] (default
    {!Mc_dsm.Cost.latency}); its checker streams during execution. An SC
    memory reads [config.procs], [config.record] and
    [config.check_online] only: its checker replays the recorded history
    under [config.check_model] after the run. Raises [Invalid_argument]
    when an SC memory is given a placement. *)
val run :
  ?latency:Mc_net.Latency.t ->
  t ->
  Mc_dsm.Config.t ->
  ((int -> (Mc_dsm.Api.t -> unit) -> unit) -> 'a) ->
  'a * result
