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
    so scheduling and firing an event allocates only its action. A
    caller can hold events back and still keep their place: it reserves
    each one's sequence number when it would have scheduled it
    ({!reserve}) and schedules it later at that number
    ({!schedule_at}), as a network link does for its messages in
    flight. A fiber carries one record for its whole life, which names
    it in the deadlock message and rejects a second resume of one
    suspension.

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

(** [reserve t] draws the next sequence number, as scheduling an event
    would, for an event that {!schedule_at} puts in the queue later. *)
val reserve : t -> int

(** [schedule_at t ~at ~seq f] runs [f] at (time [at], sequence number
    [seq]), as if it had been scheduled when [seq] was reserved: after
    the events at [at] scheduled before the reservation and before
    those scheduled after it. [seq] must come from {!reserve}, taken
    before the clock reached [at] (earlier in virtual time), and be used
    once; [at] must not be in the past. A caller that holds events back
    keeps its own order of times and seqs: a network link keeps its
    in-flight messages behind one pending event, their head's, and
    schedules the next message when the head fires, at the time and seq
    it drew when it was sent. The time is taken exactly: [now + (at -
    now)] can round to one ulp below [at]. *)
val schedule_at : t -> at:float -> seq:int -> (unit -> unit) -> unit

(** [delay t d] suspends the calling fiber for [d] units of virtual time.
    Must be called from within a fiber of [t]: called elsewhere (a
    callback, a suspension's [setup]) its effect is unhandled. It takes
    two events, like any suspension: a timer at [now + d], then the
    fiber's resume at delay 0, which fires after the events already
    scheduled for that time. When the timer would be the next event —
    nothing due now, every other pending event later than [now + d], and
    [now + d] within {!run_until}'s limit — nothing can fire before it or
    between it and the resume, so the delay runs inline: the clock moves
    to [now + d] and the fiber goes on without suspending, and the
    timer's sequence number, {!events_processed} and the metrics move as
    the two events would have moved them. No event's (time, seq)
    position changes. A timer whose resume would fire next likewise
    continues its fiber without queueing the resume. *)
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
    nothing beyond its own [events_processed] count. The depth counts
    pending events: a network link's messages in flight count once,
    as its head's event. *)
val attach_metrics : t -> Mc_obs.Metrics.Registry.t -> unit
