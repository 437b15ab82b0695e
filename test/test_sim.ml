(* Tests for the discrete-event engine and its fibers. *)

module Engine = Mc_sim.Engine

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

let test_event_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:5. (fun () -> log := 5 :: !log);
  Engine.schedule e ~delay:1. (fun () -> log := 1 :: !log);
  Engine.schedule e ~delay:3. (fun () -> log := 3 :: !log);
  let tend = Engine.run e in
  Alcotest.(check (list int)) "time order" [ 1; 3; 5 ] (List.rev !log);
  check_float "final time" 5. tend

let test_same_time_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Engine.schedule e ~delay:1. (fun () -> log := i :: !log)
  done;
  ignore (Engine.run e);
  Alcotest.(check (list int)) "fifo at equal times" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_fiber_delay () =
  let e = Engine.create () in
  let times = ref [] in
  Engine.spawn e (fun () ->
      times := Engine.now e :: !times;
      Engine.delay e 2.5;
      times := Engine.now e :: !times;
      Engine.delay e 1.5;
      times := Engine.now e :: !times);
  ignore (Engine.run e);
  Alcotest.(check (list (float 1e-9))) "delay advances time" [ 0.; 2.5; 4. ]
    (List.rev !times)

let test_many_fibers_interleave () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.spawn e (fun () ->
      Engine.delay e 1.;
      log := "a1" :: !log;
      Engine.delay e 2.;
      log := "a2" :: !log);
  Engine.spawn e (fun () ->
      Engine.delay e 2.;
      log := "b1" :: !log);
  ignore (Engine.run e);
  Alcotest.(check (list string)) "interleaving" [ "a1"; "b1"; "a2" ] (List.rev !log)

let test_suspend_resume () =
  let e = Engine.create () in
  let resumer = ref None in
  let got = ref 0 in
  Engine.spawn e (fun () ->
      let v = Engine.suspend e (fun resume -> resumer := Some resume) in
      got := v);
  Engine.schedule e ~delay:10. (fun () -> Option.get !resumer 99);
  ignore (Engine.run e);
  check_int "resumed with value" 99 !got

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec scan i = i + nn <= nh && (String.sub hay i nn = needle || scan (i + 1)) in
  scan 0

(* an event due now fires after the events already scheduled for the
   same time, and before those scheduled later for it *)
let test_due_now_order () =
  let e = Engine.create () in
  let log = ref [] in
  let note x () = log := x :: !log in
  Engine.schedule e ~delay:1. (fun () ->
      note "a" ();
      Engine.schedule e ~delay:0. (note "due");
      Engine.schedule e ~delay:0.5 (note "later"));
  Engine.schedule e ~delay:1. (note "b");
  Engine.spawn e (fun () ->
      Engine.delay e 1.;
      note "fiber" ());
  ignore (Engine.run e);
  Alcotest.(check (list string)) "(time, seq) order"
    [ "a"; "b"; "due"; "fiber"; "later" ]
    (List.rev !log)

(* An event scheduled late at a reserved seq fires where an event
   scheduled at the reservation would: after the events at its time
   scheduled before the reservation, before those scheduled after it,
   and, at the current time, before the events already due now. *)
let test_reserved_seq () =
  let e = Engine.create () in
  let log = ref [] in
  let note x () = log := x :: !log in
  Engine.schedule e ~delay:5. (note "before");
  let early = Engine.reserve e and late = Engine.reserve e in
  Engine.schedule e ~delay:5. (note "after");
  Engine.schedule e ~delay:1. (fun () ->
      Engine.schedule_at e ~at:5. ~seq:early (fun () ->
          note "early" ();
          Engine.schedule e ~delay:0. (note "due");
          Engine.schedule_at e ~at:5. ~seq:late (note "late")));
  ignore (Engine.run e);
  Alcotest.(check (list string)) "(time, seq) order"
    [ "before"; "early"; "late"; "after"; "due" ]
    (List.rev !log);
  Alcotest.check_raises "unreserved seq"
    (Invalid_argument "Engine.schedule_at: sequence number not reserved") (fun () ->
      Engine.schedule_at e ~at:6. ~seq:(Engine.reserve e + 1) ignore);
  Alcotest.check_raises "past time"
    (Invalid_argument "Engine.schedule_at: time in the past") (fun () ->
      Engine.schedule_at e ~at:4. ~seq:(Engine.reserve e) ignore)

let test_resumed_twice () =
  let e = Engine.create () in
  let resumer = ref None in
  Engine.spawn e (fun () ->
      Engine.suspend e (fun resume -> resumer := Some resume);
      Engine.suspend e (fun _ -> ()));
  Engine.schedule e ~delay:1. (fun () ->
      let resume = Option.get !resumer in
      resume ();
      Alcotest.check_raises "second resume" (Invalid_argument "Engine: fiber resumed twice")
        resume);
  Alcotest.check_raises "still blocked"
    (Engine.Deadlock "1 fiber(s) blocked at t=1.000: [fiber]") (fun () ->
      ignore (Engine.run e))

let test_deadlock_detection () =
  let e = Engine.create () in
  Engine.spawn e ~name:"stuck" (fun () ->
      ignore (Engine.suspend e (fun _resume -> ())));
  match Engine.run e with
  | (_ : float) -> Alcotest.fail "expected deadlock"
  | exception Engine.Deadlock msg ->
    check "deadlock names the fiber" true (contains_substring msg "stuck")

let test_fiber_failure () =
  let e = Engine.create () in
  Engine.spawn e (fun () -> failwith "boom");
  match Engine.run e with
  | (_ : float) -> Alcotest.fail "expected failure propagation"
  | exception Engine.Fiber_failure (Failure msg, _) ->
    Alcotest.(check string) "original exception" "boom" msg
  | exception _ -> Alcotest.fail "wrong exception"

let test_run_until () =
  let e = Engine.create () in
  let fired = ref [] in
  Engine.schedule e ~delay:1. (fun () -> fired := 1 :: !fired);
  Engine.schedule e ~delay:10. (fun () -> fired := 10 :: !fired);
  let t = Engine.run_until e ~limit:5. in
  Alcotest.(check (list int)) "only early events" [ 1 ] !fired;
  check "stopped before limit" true (t <= 5.);
  ignore (Engine.run e);
  Alcotest.(check (list int)) "resumes later" [ 10; 1 ] !fired

let test_events_processed () =
  let e = Engine.create () in
  for _ = 1 to 7 do
    Engine.schedule e ~delay:1. ignore
  done;
  ignore (Engine.run e);
  check_int "events counted" 7 (Engine.events_processed e)

let test_negative_delay_rejected () =
  let e = Engine.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule: negative delay") (fun () ->
      Engine.schedule e ~delay:(-1.) ignore)

(* A delay outside a fiber's own code has no handler, even where its
   timer would be the next event: in a callback, and in a suspension's
   setup, which runs in the engine, not in the fiber. *)
let test_delay_outside_fiber () =
  let unhandled what f =
    let e = Engine.create () in
    f e;
    match Engine.run e with
    | (_ : float) -> Alcotest.failf "%s: the delay returned" what
    | exception Effect.Unhandled _ -> ()
  in
  unhandled "callback" (fun e -> Engine.schedule e ~delay:1. (fun () -> Engine.delay e 1.));
  unhandled "suspension setup" (fun e ->
      Engine.spawn e (fun () -> Engine.suspend e (fun _resume -> Engine.delay e 1.)))

(* ------------------------------------------------------------------ *)
(* Differential: the engine against the two-event engine               *)
(* ------------------------------------------------------------------ *)

(* One step of a fiber; each logs once it is done. *)
type step =
  | Delay of float
  | Wake of float (* a callback at the wake-up time of a delay of as long *)
  | Park of float (* suspend; a callback that long after resumes the fiber *)
  | Held of float * float
      (* reserve a seq; a callback after the first length schedules
         the event at the seq, the second length later *)

type program = {
  fibers : step list list;
  callbacks : (float * float) list; (* at, then a follow-up that much later *)
  limit : float option; (* [run_until] before [run] *)
  metrics : bool;
}

(* zero, a few equal lengths and random ones *)
let length_gen =
  QCheck.Gen.(
    frequency
      [
        (2, return 0.);
        (3, oneofl [ 1.; 2.; 2.5 ]);
        (2, map (fun k -> float_of_int k *. 0.375) (int_bound 12));
      ])

let step_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map (fun d -> Delay d) length_gen);
        (2, map (fun d -> Wake d) length_gen);
        (2, map (fun d -> Park d) length_gen);
        (1, map2 (fun a b -> Held (a, b)) length_gen length_gen);
      ])

let program_gen =
  QCheck.Gen.(
    map4
      (fun fibers callbacks limit metrics -> { fibers; callbacks; limit; metrics })
      (list_size (int_range 1 4) (list_size (int_bound 8) step_gen))
      (list_size (int_bound 4) (pair (map (fun k -> float_of_int k) (int_bound 8)) length_gen))
      (opt (map (fun k -> float_of_int k *. 0.5) (int_bound 16)))
      bool)

let pp_program p =
  let step = function
    | Delay d -> Printf.sprintf "delay %g" d
    | Wake d -> Printf.sprintf "wake %g" d
    | Park d -> Printf.sprintf "park %g" d
    | Held (a, b) -> Printf.sprintf "held %g %g" a b
  in
  let fiber i steps = Printf.sprintf "fiber %d: %s" i (String.concat "; " (List.map step steps)) in
  let limit = function
    | Some l -> Printf.sprintf "run_until %g, then run" l
    | None -> "run"
  in
  String.concat "\n"
    (List.mapi fiber p.fibers
    @ List.map (fun (a, b) -> Printf.sprintf "callback at %g, then %g later" a b) p.callbacks
    @ [ limit p.limit; Printf.sprintf "metrics %b" p.metrics ])

module type ENGINE = sig
  type t

  val create : unit -> t
  val now : t -> float
  val spawn : t -> ?name:string -> (unit -> unit) -> unit
  val schedule : t -> delay:float -> (unit -> unit) -> unit
  val reserve : t -> int
  val schedule_at : t -> at:float -> seq:int -> (unit -> unit) -> unit
  val delay : t -> float -> unit
  val suspend : t -> (('a -> unit) -> unit) -> 'a
  val run : t -> float
  val run_until : t -> limit:float -> float
  val events_processed : t -> int
  val attach_metrics : t -> Mc_obs.Metrics.Registry.t -> unit
end

(* a run's (label, time) log, its stop time and event count after each
   phase, and its metrics *)
module Script (E : ENGINE) = struct
  let run p =
    let e = E.create () in
    let reg = Mc_obs.Metrics.Registry.create () in
    if p.metrics then E.attach_metrics e reg;
    let log = ref [] in
    let note label = log := (label, E.now e) :: !log in
    List.iteri
      (fun i steps ->
        E.spawn e (fun () ->
            List.iteri
              (fun j step ->
                let label = Printf.sprintf "f%d.%d" i j in
                (match step with
                | Delay d -> E.delay e d
                | Wake d ->
                  E.schedule e ~delay:d (fun () -> note (label ^ " callback"));
                  E.delay e d
                | Park d ->
                  E.suspend e (fun resume ->
                      E.schedule e ~delay:d (fun () ->
                          note (label ^ " resume");
                          resume ()))
                | Held (a, b) ->
                  let seq = E.reserve e and at = E.now e +. a +. b in
                  E.schedule e ~delay:a (fun () ->
                      E.schedule_at e ~at ~seq (fun () -> note (label ^ " held"))));
                note label)
              steps))
      p.fibers;
    List.iteri
      (fun i (at, later) ->
        E.schedule e ~delay:at (fun () ->
            note (Printf.sprintf "c%d" i);
            E.schedule e ~delay:later (fun () -> note (Printf.sprintf "c%d later" i))))
      p.callbacks;
    let phases = ref [] in
    let phase stop = phases := (stop, E.events_processed e, List.rev !log) :: !phases in
    Option.iter (fun limit -> phase (E.run_until e ~limit)) p.limit;
    phase (E.run e);
    (List.rev !phases, if p.metrics then Mc_obs.Metrics.Registry.to_json reg else "")
end

module Inline = Script (Engine)
module Two_events = Script (Oracle.Engine)

let engine_differential =
  QCheck.Test.make ~name:"inline delays = two-event engine" ~count:1000
    (QCheck.make ~print:pp_program program_gen)
    (fun p -> Inline.run p = Two_events.run p)

let () =
  Alcotest.run "mc_sim"
    [
      ( "engine",
        [
          Alcotest.test_case "events fire in time order" `Quick test_event_order;
          Alcotest.test_case "fifo at equal times" `Quick test_same_time_fifo;
          Alcotest.test_case "fiber delay" `Quick test_fiber_delay;
          Alcotest.test_case "fibers interleave" `Quick test_many_fibers_interleave;
          Alcotest.test_case "suspend/resume" `Quick test_suspend_resume;
          Alcotest.test_case "due-now order" `Quick test_due_now_order;
          Alcotest.test_case "reserved seq keeps its place" `Quick test_reserved_seq;
          Alcotest.test_case "resumed twice" `Quick test_resumed_twice;
          Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
          Alcotest.test_case "fiber failure propagates" `Quick test_fiber_failure;
          Alcotest.test_case "run_until" `Quick test_run_until;
          Alcotest.test_case "event counter" `Quick test_events_processed;
          Alcotest.test_case "negative delay rejected" `Quick test_negative_delay_rejected;
          Alcotest.test_case "delay outside a fiber" `Quick test_delay_outside_fiber;
          QCheck_alcotest.to_alcotest engine_differential;
        ] );
    ]
