(** Deterministic discrete-event simulation engine with cooperative
    fibers.

    Virtual time is a float (microseconds by convention). Events fire in
    time order with FIFO tie-breaking, so a run is fully determined by the
    program and its seed. Fibers are lightweight processes implemented
    with OCaml effects: application code is written in direct style and
    suspends into the engine whenever it blocks on a simulated resource
    (message arrival, lock grant, barrier release, ...).

    Every event sits at a (time, seq) position, [seq] being the order in
    which events were scheduled, and events fire in that order. The
    queue is a binary heap over those pairs held in flat arrays (times
    unboxed), plus a FIFO ring for the events due at the current time,
    so scheduling and firing an event allocates only its action. A fiber
    carries one record for its whole life, which names it in the
    deadlock message and rejects a second resume of one suspension.

    Typical use:
    {[
      let engine = Engine.create () in
      Engine.spawn engine (fun () ->
          Engine.delay engine 5.0;
          ...);
      Engine.run engine
    ]} *)

type t

exception Deadlock of string
(** Raised by {!run} when the event queue drains while fibers are still
    blocked; the payload describes the stuck fibers. *)

exception Fiber_failure of exn * Printexc.raw_backtrace
(** Raised by {!run} when a fiber terminates with an uncaught exception. *)

val create : unit -> t

(** [now t] is the current virtual time. *)
val now : t -> float

(** [spawn t ?name f] creates a fiber running [f], started at the current
    virtual time. [name] appears in deadlock diagnostics. *)
val spawn : t -> ?name:string -> (unit -> unit) -> unit

(** [schedule t ~delay f] runs the plain callback [f] at [now + delay].
    Callbacks must not suspend; they may resume suspended fibers. *)
val schedule : t -> delay:float -> (unit -> unit) -> unit

(** [schedule_at t ~at f] runs [f] at time [at], which must not be in the
    past. Events given one time fire in the order they were scheduled,
    so callers that keep their own order of delivery times (a FIFO link
    clamps each message to its predecessor's time) get it exactly:
    [now + (at - now)] can round to one ulp below [at]. *)
val schedule_at : t -> at:float -> (unit -> unit) -> unit

(** [delay t d] suspends the calling fiber for [d] units of virtual time.
    Must be called from within a fiber of [t]. It takes two events, like
    any suspension: a timer at [now + d], then the fiber's resume at
    delay 0, which fires after the events already scheduled for that
    time. *)
val delay : t -> float -> unit

(** [suspend t setup] suspends the calling fiber. [setup] is called
    immediately with a [resume] closure; stash it wherever the wake-up
    signal will come from (a message handler, a lock queue, ...). Calling
    [resume v] schedules the fiber to continue with value [v] at the
    then-current virtual time. [resume] must be called at most once. *)
val suspend : t -> (('a -> unit) -> unit) -> 'a

(** [run t] processes events until the queue is empty. Raises {!Deadlock}
    if any spawned fiber has not finished by then, and {!Fiber_failure}
    if a fiber raised. Returns the final virtual time. *)
val run : t -> float

(** [run_until t ~limit] is {!run} but stops once virtual time would
    exceed [limit]; returns the stop time. Pending events/fibers are
    abandoned without a deadlock check (used by fault-injection tests). *)
val run_until : t -> limit:float -> float

(** [events_processed t] counts events executed so far. *)
val events_processed : t -> int

(** [attach_metrics t reg] registers engine counters
    ([mc_engine_events_total], [mc_engine_fibers_spawned_total],
    [mc_engine_suspends_total]) and the [mc_engine_queue_depth] gauge in
    [reg] and starts updating them. Until attached the engine records
    nothing beyond its own [events_processed] count. *)
val attach_metrics : t -> Mc_obs.Metrics.Registry.t -> unit
