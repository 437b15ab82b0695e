(** Link latency models for the simulated network. *)

type t

(** [constant d] gives every message latency [d]. *)
val constant : float -> t

(** [uniform rng ~lo ~hi] samples each message latency uniformly from
    [lo, hi). The generator is owned by the model. *)
val uniform : Mc_util.Rng.t -> lo:float -> hi:float -> t

(** [matrix m] uses [m.(src).(dst)] as the fixed latency of each link. *)
val matrix : float array array -> t

(** [jitter base rng ~spread] adds uniform noise in [0, spread) on top of
    another model. *)
val jitter : t -> Mc_util.Rng.t -> spread:float -> t

(** [sample t ~src ~dst] draws the latency for one message. *)
val sample : t -> src:int -> dst:int -> float

(** [mean t] is the model's expected latency of one message between two
    distinct nodes, without drawing from its generator. *)
val mean : t -> float
