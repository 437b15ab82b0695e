exception Deadlock of string
exception Fiber_failure of exn * Printexc.raw_backtrace

type obs = {
  c_events : Mc_obs.Metrics.Counter.t;
  c_spawns : Mc_obs.Metrics.Counter.t;
  c_suspends : Mc_obs.Metrics.Counter.t;
  g_queue : Mc_obs.Metrics.Gauge.t;
}

(* what an event does when it fires *)
type action =
  | Idle (* an empty slot of [acts] or [due] *)
  | Call of (unit -> unit)
  | Resume : ('a, unit) Effect.Deep.continuation * 'a -> action
  | Timer of (unit, unit) Effect.Deep.continuation
      (* a fiber's delay ran out: it resumes at delay 0 *)

(* One per spawned fiber. [pending] is the number of its suspension
   still waiting for a resume, 0 while it runs or sleeps: the deadlock
   message names the fibers with one, and a resume whose number is no
   longer pending is a second resume. *)
type fiber = { name : string; mutable suspensions : int; mutable pending : int }

(* An all-float record is stored flat, so no field is ever boxed.
   [at] carries an event's time into [push]; [limit] is the time past
   which the running [run_until] fires nothing ([infinity] under [run]). *)
type clock = { mutable now : float; mutable at : float; mutable limit : float }

(* The event queue is a binary heap over (time, seq) kept in parallel
   arrays; [seq] numbers events in scheduling order, so events at equal
   times fire FIFO. An entry's action stays in its slot of [acts] while
   the entry moves, so sifting moves only unboxed floats and ints.
   Events due at the current time skip the heap (see [push]). *)
type t = {
  clock : clock;
  mutable times : float array;
  mutable seqs : int array;
  mutable slots : int array;
      (* a permutation of [acts]' slots: the first [size] are the
         entries', in heap order; the rest are free *)
  mutable acts : action array;
  mutable size : int;
  mutable next_seq : int;
  mutable due : action array; (* a ring of events due now, oldest at [due_head] *)
  mutable due_head : int;
  mutable due_len : int;
  mutable live : int;
  mutable in_fiber : bool; (* a fiber's own code is running, not a callback *)
  mutable events : int;
  mutable failure : (exn * Printexc.raw_backtrace) option;
  mutable fibers : fiber list;
  mutable obs : obs option;
}

type _ Effect.t +=
  | Suspend : (('a -> unit) -> unit) -> 'a Effect.t
  | Sleep : unit Effect.t (* for [clock.at - now] *)

let create () =
  {
    clock = { now = 0.; at = 0.; limit = infinity };
    times = [||];
    seqs = [||];
    slots = [||];
    acts = [||];
    size = 0;
    next_seq = 0;
    due = [||];
    due_head = 0;
    due_len = 0;
    live = 0;
    in_fiber = false;
    events = 0;
    failure = None;
    fibers = [];
    obs = None;
  }

let attach_metrics t reg =
  let module M = Mc_obs.Metrics in
  t.obs <-
    Some
      {
        c_events =
          M.Registry.counter reg ~help:"events executed by the sim engine"
            "mc_engine_events_total";
        c_spawns =
          M.Registry.counter reg ~help:"fibers spawned" "mc_engine_fibers_spawned_total";
        c_suspends =
          M.Registry.counter reg ~help:"fiber suspensions" "mc_engine_suspends_total";
        g_queue =
          M.Registry.gauge reg ~help:"event-queue depth sampled at each step"
            "mc_engine_queue_depth";
      }

let now t = t.clock.now
let events_processed t = t.events

(* ------------------------------------------------------------------ *)
(* Event heap                                                          *)
(* ------------------------------------------------------------------ *)

let grow t =
  let size = t.size in
  let cap = max 16 (2 * size) in
  let times = Array.make cap 0. and seqs = Array.make cap 0 in
  let slots = Array.init cap Fun.id and acts = Array.make cap Idle in
  Array.blit t.times 0 times 0 size;
  Array.blit t.seqs 0 seqs 0 size;
  Array.blit t.slots 0 slots 0 size;
  Array.blit t.acts 0 acts 0 size;
  t.times <- times;
  t.seqs <- seqs;
  t.slots <- slots;
  t.acts <- acts

(* add [act] at (time [t.clock.at], [seq]): parents later in that order
   move down into the hole until its place is found. A fresh seq is the
   largest yet, so only a reserved one can pass a parent of its own
   time. It takes the first free slot *)
let heap_insert t act seq =
  if t.size = Array.length t.acts then grow t;
  let time = t.clock.at and times = t.times and seqs = t.seqs and slots = t.slots in
  let slot = slots.(t.size) in
  t.acts.(slot) <- act;
  let i = ref t.size and rising = ref true in
  while !rising && !i > 0 do
    let parent = (!i - 1) / 2 in
    if time < times.(parent) || (time = times.(parent) && seq < seqs.(parent)) then begin
      times.(!i) <- times.(parent);
      seqs.(!i) <- seqs.(parent);
      slots.(!i) <- slots.(parent);
      i := parent
    end
    else rising := false
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  slots.(!i) <- slot;
  t.size <- t.size + 1

let reserve t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

let heap_push t act = heap_insert t act (reserve t)

(* remove the earliest event, advance the clock to its time and return
   its action. The last entry refills the root's hole from above: the
   earlier child moves up until the entry fits. The event's slot is
   cleared, so the heap keeps no dead continuation or closure alive,
   and freed *)
let heap_pop t =
  let times = t.times and seqs = t.seqs and slots = t.slots in
  let slot = slots.(0) in
  let act = t.acts.(slot) in
  t.acts.(slot) <- Idle;
  t.clock.now <- times.(0);
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then begin
    let time = times.(n) and seq = seqs.(n) and last = slots.(n) in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= n then sifting := false
      else begin
        let r = l + 1 in
        let c =
          if r < n && (times.(r) < times.(l) || (times.(r) = times.(l) && seqs.(r) < seqs.(l)))
          then r
          else l
        in
        if times.(c) < time || (times.(c) = time && seqs.(c) < seq) then begin
          times.(!i) <- times.(c);
          seqs.(!i) <- seqs.(c);
          slots.(!i) <- slots.(c);
          i := c
        end
        else sifting := false
      end
    done;
    times.(!i) <- time;
    seqs.(!i) <- seq;
    slots.(!i) <- last
  end;
  slots.(n) <- slot;
  act

(* [due]'s capacity is a power of two *)
let due_push t act =
  let cap = Array.length t.due in
  if t.due_len = cap then begin
    let due = Array.make (max 16 (2 * cap)) Idle in
    for k = 0 to cap - 1 do
      due.(k) <- t.due.((t.due_head + k) land (cap - 1))
    done;
    t.due <- due;
    t.due_head <- 0
  end;
  t.due.((t.due_head + t.due_len) land (Array.length t.due - 1)) <- act;
  t.due_len <- t.due_len + 1

let due_pop t =
  let act = t.due.(t.due_head) in
  t.due.(t.due_head) <- Idle;
  t.due_head <- (t.due_head + 1) land (Array.length t.due - 1);
  t.due_len <- t.due_len - 1;
  act

(* An event due at the current time (a resume, a zero delay) goes to
   [due] in O(1). A heap entry due now was scheduled before the clock got
   here, so before every event in [due], and an event scheduled later
   due now goes to [due] too: (time, seq) order is the heap's entries due
   now, then [due] in order, then the rest of the heap. [pop] takes
   events in that order *)
let push t act = if t.clock.at = t.clock.now then due_push t act else heap_push t act

let pop t =
  if t.due_len > 0 && not (t.size > 0 && t.times.(0) = t.clock.now) then due_pop t
  else heap_pop t

let pending t = t.size + t.due_len

let schedule t ~delay f =
  if delay < 0. then invalid_arg "Engine.schedule: negative delay";
  t.clock.at <- t.clock.now +. delay;
  push t (Call f)

(* straight into the heap, even when [at] is now: the seq was reserved
   before the clock got here, so the event comes before every one in
   [due] *)
let schedule_at t ~at ~seq f =
  if at < t.clock.now then invalid_arg "Engine.schedule_at: time in the past";
  if seq >= t.next_seq then invalid_arg "Engine.schedule_at: sequence number not reserved";
  t.clock.at <- at;
  heap_insert t (Call f) seq

(* ------------------------------------------------------------------ *)
(* Fibers                                                              *)
(* ------------------------------------------------------------------ *)

let count_suspend t =
  match t.obs with
  | Some o -> Mc_obs.Metrics.Counter.incr o.c_suspends
  | None -> ()

(* what an event counts as it fires, once it is off the queue *)
let count_event t =
  t.events <- t.events + 1;
  match t.obs with
  | Some o ->
    Mc_obs.Metrics.Counter.incr o.c_events;
    Mc_obs.Metrics.Gauge.set o.g_queue (float_of_int (pending t))
  | None -> ()

let suspend_fiber t fiber k setup =
  count_suspend t;
  let n = fiber.suspensions + 1 in
  fiber.suspensions <- n;
  fiber.pending <- n;
  setup (fun v ->
      if fiber.pending <> n then invalid_arg "Engine: fiber resumed twice";
      fiber.pending <- 0;
      t.clock.at <- t.clock.now;
      push t (Resume (k, v)))

(* A fiber's own code runs from its start or a [continue] to its next
   effect, its return or its exception: [in_fiber] holds in between,
   and not in a suspension's [setup] or in a callback *)
let handler t fiber =
  let open Effect.Deep in
  (* allocated once per fiber: a delay allocates only its two events *)
  let on_sleep =
    Some
      (fun (k : (unit, unit) continuation) ->
        t.in_fiber <- false;
        count_suspend t;
        push t (Timer k))
  in
  {
    retc =
      (fun () ->
        t.in_fiber <- false;
        t.live <- t.live - 1);
    exnc =
      (fun exn ->
        t.in_fiber <- false;
        t.live <- t.live - 1;
        if t.failure = None then
          t.failure <- Some (exn, Printexc.get_raw_backtrace ()));
    effc =
      (fun (type a) (eff : a Effect.t) : ((a, unit) continuation -> unit) option ->
        match eff with
        | Sleep -> on_sleep
        | Suspend setup ->
          Some
            (fun k ->
              t.in_fiber <- false;
              suspend_fiber t fiber k setup)
        | _ -> None);
  }

let continue_fiber t k v =
  t.in_fiber <- true;
  Effect.Deep.continue k v

let spawn t ?(name = "fiber") f =
  let fiber = { name; suspensions = 0; pending = 0 } in
  t.fibers <- fiber :: t.fibers;
  t.live <- t.live + 1;
  (match t.obs with
  | Some o -> Mc_obs.Metrics.Counter.incr o.c_spawns
  | None -> ());
  schedule t ~delay:0. (fun () ->
      t.in_fiber <- true;
      Effect.Deep.match_with f () (handler t fiber))

let suspend _t setup = Effect.perform (Suspend setup)

(* A delay takes two events, as any suspension does: the timer, then
   the resume at delay 0. Resuming straight from the timer would run
   the fiber ahead of the events scheduled for the same time between
   the two. When the timer would be the next event (nothing due now,
   the heap's earliest entry later than [now + d], [now + d] within
   [run_until]'s limit), nothing can fire before the timer or between
   it and the resume: the fiber keeps running, and the clock, the
   timer's seq (drawn by a timer in the heap, not one due now) and the
   counts move as the two events would have moved them. Outside a
   fiber the effect goes unhandled, as it always has. *)
let delay t d =
  if d < 0. then invalid_arg "Engine.delay: negative delay";
  let clock = t.clock in
  let at = clock.now +. d in
  if t.in_fiber && t.due_len = 0 && (t.size = 0 || t.times.(0) > at) && at <= clock.limit
  then begin
    if at <> clock.now then t.next_seq <- t.next_seq + 1;
    clock.now <- at;
    count_suspend t;
    count_event t;
    count_event t
  end
  else begin
    clock.at <- at;
    Effect.perform Sleep
  end

(* ------------------------------------------------------------------ *)
(* Running                                                             *)
(* ------------------------------------------------------------------ *)

let check_failure t =
  match t.failure with
  | Some (exn, bt) ->
    t.failure <- None;
    raise (Fiber_failure (exn, bt))
  | None -> ()

let step t =
  let act = pop t in
  count_event t;
  (match act with
  | Call f -> f ()
  | Resume (k, v) -> continue_fiber t k v
  | Timer k ->
    if t.due_len = 0 && (t.size = 0 || t.times.(0) > t.clock.now) then begin
      (* the resume would fire next, at a time the limit let the timer
         fire at: it fires here *)
      count_event t;
      continue_fiber t k ()
    end
    else begin
      t.clock.at <- t.clock.now;
      push t (Resume (k, ()))
    end
  | Idle -> ());
  check_failure t

let run t =
  t.clock.limit <- infinity;
  while pending t > 0 do
    step t
  done;
  if t.live > 0 then begin
    let names =
      List.filter_map (fun f -> if f.pending <> 0 then Some f.name else None) t.fibers
      |> List.sort String.compare |> String.concat ", "
    in
    raise
      (Deadlock
         (Printf.sprintf "%d fiber(s) blocked at t=%.3f: [%s]" t.live t.clock.now names))
  end;
  t.clock.now

let run_until t ~limit =
  t.clock.limit <- limit;
  while pending t > 0 && not ((if t.due_len > 0 then t.clock.now else t.times.(0)) > limit) do
    step t
  done;
  t.clock.now
