exception Deadlock of string
exception Fiber_failure of exn * Printexc.raw_backtrace

type obs = {
  c_events : Mc_obs.Metrics.Counter.t;
  c_spawns : Mc_obs.Metrics.Counter.t;
  c_suspends : Mc_obs.Metrics.Counter.t;
  g_queue : Mc_obs.Metrics.Gauge.t;
}

type t = {
  queue : (unit -> unit) Mc_util.Pqueue.t;
  mutable now : float;
  mutable live : int;
  mutable events : int;
  mutable failure : (exn * Printexc.raw_backtrace) option;
  blocked : (int, string) Hashtbl.t; (* fiber id -> name, for diagnostics *)
  mutable next_fiber_id : int;
  mutable obs : obs option;
}

(* The currently-running fiber's id, used only for deadlock diagnostics. *)
let current_fiber : int option ref = ref None

type _ Effect.t += Suspend : (('a -> unit) -> unit) -> 'a Effect.t

let create () =
  {
    queue = Mc_util.Pqueue.create ();
    now = 0.;
    live = 0;
    events = 0;
    failure = None;
    blocked = Hashtbl.create 16;
    next_fiber_id = 0;
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

let now t = t.now
let events_processed t = t.events

let schedule t ~delay f =
  if delay < 0. then invalid_arg "Engine.schedule: negative delay";
  Mc_util.Pqueue.add t.queue ~priority:(t.now +. delay) f

let handler t fiber_id name =
  let open Effect.Deep in
  {
    retc = (fun () -> t.live <- t.live - 1);
    exnc =
      (fun exn ->
        t.live <- t.live - 1;
        if t.failure = None then
          t.failure <- Some (exn, Printexc.get_raw_backtrace ()));
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Suspend setup ->
          Some
            (fun (k : (a, _) continuation) ->
              (match t.obs with
              | Some o -> Mc_obs.Metrics.Counter.incr o.c_suspends
              | None -> ());
              Hashtbl.replace t.blocked fiber_id name;
              let resumed = ref false in
              let resume v =
                if !resumed then
                  invalid_arg "Engine: fiber resumed twice"
                else begin
                  resumed := true;
                  Hashtbl.remove t.blocked fiber_id;
                  schedule t ~delay:0. (fun () ->
                      let saved = !current_fiber in
                      current_fiber := Some fiber_id;
                      continue k v;
                      current_fiber := saved)
                end
              in
              setup resume)
        | _ -> None);
  }

let spawn t ?(name = "fiber") f =
  let fiber_id = t.next_fiber_id in
  t.next_fiber_id <- fiber_id + 1;
  t.live <- t.live + 1;
  (match t.obs with
  | Some o -> Mc_obs.Metrics.Counter.incr o.c_spawns
  | None -> ());
  schedule t ~delay:0. (fun () ->
      let saved = !current_fiber in
      current_fiber := Some fiber_id;
      Effect.Deep.match_with f () (handler t fiber_id name);
      current_fiber := saved)

let suspend _t setup = Effect.perform (Suspend setup)

let delay t d =
  if d < 0. then invalid_arg "Engine.delay: negative delay";
  suspend t (fun resume -> schedule t ~delay:d (fun () -> resume ()))

let check_failure t =
  match t.failure with
  | Some (exn, bt) ->
    t.failure <- None;
    raise (Fiber_failure (exn, bt))
  | None -> ()

let step t =
  let time, action = Mc_util.Pqueue.pop_min t.queue in
  t.now <- time;
  t.events <- t.events + 1;
  (match t.obs with
  | Some o ->
    Mc_obs.Metrics.Counter.incr o.c_events;
    Mc_obs.Metrics.Gauge.set o.g_queue (float_of_int (Mc_util.Pqueue.length t.queue))
  | None -> ());
  action ();
  check_failure t

let run t =
  while not (Mc_util.Pqueue.is_empty t.queue) do
    step t
  done;
  if t.live > 0 then begin
    let names =
      Hashtbl.fold (fun _ name acc -> name :: acc) t.blocked []
      |> List.sort String.compare |> String.concat ", "
    in
    raise
      (Deadlock
         (Printf.sprintf "%d fiber(s) blocked at t=%.3f: [%s]" t.live t.now names))
  end;
  t.now

let run_until t ~limit =
  let continue_run = ref true in
  while !continue_run && not (Mc_util.Pqueue.is_empty t.queue) do
    match Mc_util.Pqueue.peek_min t.queue with
    | Some (time, _) when time > limit -> continue_run := false
    | _ -> step t
  done;
  t.now

module Cond = struct
  type nonrec t = { mutable queue : (unit -> unit) list (* resumers, FIFO *) }

  let create () = { queue = [] }
  let waiters c = List.length c.queue

  let wait engine c =
    suspend engine (fun resume -> c.queue <- c.queue @ [ (fun () -> resume ()) ])

  let signal _engine c =
    match c.queue with
    | [] -> ()
    | resume :: rest ->
      c.queue <- rest;
      resume ()

  let broadcast _engine c =
    let resumers = c.queue in
    c.queue <- [];
    List.iter (fun resume -> resume ()) resumers
end
