(* Tests for the simulated network: FIFO channels (one pending engine
   event per link, and the (time, seq) order of its deliveries), latency
   models, pause/resume, sender occupancy and statistics. *)

module Engine = Mc_sim.Engine
module Network = Mc_net.Network
module Latency = Mc_net.Latency

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let make ?(nodes = 3) ?(latency = Latency.constant 10.) ?send_cost ?byte_cost () =
  let e = Engine.create () in
  let net = Network.create e ~nodes ~latency ?send_cost ?byte_cost () in
  (e, net)

let test_basic_delivery () =
  let e, net = make () in
  let got = ref [] in
  Network.set_handler net 1 (fun ~src msg -> got := (src, msg, Engine.now e) :: !got);
  Network.send net ~src:0 ~dst:1 "hello";
  ignore (Engine.run e);
  match !got with
  | [ (src, msg, time) ] ->
    check_int "source" 0 src;
    Alcotest.(check string) "payload" "hello" msg;
    Alcotest.(check (float 1e-9)) "latency applied" 10. time
  | _ -> Alcotest.fail "expected one delivery"

let test_fifo_per_channel () =
  (* with random latencies, per-channel order must still hold *)
  let e = Engine.create () in
  let latency = Latency.uniform (Mc_util.Rng.make 99) ~lo:1. ~hi:50. in
  let net = Network.create e ~nodes:2 ~latency () in
  let got = ref [] in
  Network.set_handler net 1 (fun ~src:_ msg -> got := msg :: !got);
  for i = 1 to 50 do
    Network.send net ~src:0 ~dst:1 i
  done;
  ignore (Engine.run e);
  Alcotest.(check (list int)) "fifo order" (List.init 50 (fun i -> i + 1))
    (List.rev !got)

let test_cross_channel_reordering_possible () =
  (* a later message on a fast link can overtake an earlier one on a slow
     link: that is exactly what PRAM permits across channels *)
  let e = Engine.create () in
  let m = [| [| 0.; 100. |]; [| 1.; 0. |] |] in
  let net = Network.create e ~nodes:2 ~latency:(Latency.matrix m) () in
  let got = ref [] in
  Network.set_handler net 1 (fun ~src msg -> got := (src, msg) :: !got);
  Network.set_handler net 0 (fun ~src:_ _ -> ());
  Network.send net ~src:0 ~dst:1 "slow";
  ignore (Engine.run e);
  Alcotest.(check (list (pair int string))) "slow arrives" [ (0, "slow") ] !got

let test_self_send_immediate () =
  let e, net = make () in
  let got = ref None in
  Network.set_handler net 0 (fun ~src msg -> got := Some (src, msg, Engine.now e));
  Network.send net ~src:0 ~dst:0 "self";
  ignore (Engine.run e);
  (match !got with
  | Some (0, "self", t) -> Alcotest.(check (float 1e-9)) "no latency" 0. t
  | _ -> Alcotest.fail "self delivery failed");
  check_int "self-sends are not network traffic" 0 (Network.messages_sent net)

let test_broadcast () =
  let e, net = make ~nodes:4 () in
  let received = Array.make 4 0 in
  for node = 0 to 3 do
    Network.set_handler net node (fun ~src:_ _ -> received.(node) <- received.(node) + 1)
  done;
  Network.broadcast net ~src:2 "hi";
  ignore (Engine.run e);
  Alcotest.(check (array int)) "everyone but sender" [| 1; 1; 0; 1 |] received;
  check_int "three messages" 3 (Network.messages_sent net)

let test_pause_resume () =
  let e, net = make () in
  let got = ref [] in
  Network.set_handler net 1 (fun ~src:_ msg -> got := msg :: !got);
  Network.pause_link net ~src:0 ~dst:1;
  Network.send net ~src:0 ~dst:1 1;
  Network.send net ~src:0 ~dst:1 2;
  ignore (Engine.run e);
  Alcotest.(check (list int)) "held while paused" [] !got;
  Network.resume_link net ~src:0 ~dst:1;
  ignore (Engine.run e);
  Alcotest.(check (list int)) "released in order" [ 1; 2 ] (List.rev !got)

(* link state is created on first use: pausing or resuming a link that
   never carried a message must behave like any other link, and must
   leave the opposite direction alone *)
let test_pause_resume_fresh_link () =
  let e, net = make ~nodes:4 () in
  let got = ref [] in
  Network.set_handler net 1 (fun ~src msg -> got := (src, msg) :: !got);
  Network.set_handler net 2 (fun ~src msg -> got := (src, msg) :: !got);
  Network.resume_link net ~src:3 ~dst:1;
  Network.pause_link net ~src:0 ~dst:2;
  Network.resume_link net ~src:0 ~dst:2;
  check_int "resuming empty links sends nothing" 0 (Network.messages_sent net);
  Network.pause_link net ~src:2 ~dst:1;
  Network.send net ~src:2 ~dst:1 5;
  Network.send net ~src:1 ~dst:2 6;
  Network.send net ~src:0 ~dst:2 7;
  ignore (Engine.run e);
  Alcotest.(check (list (pair int int))) "only the paused direction holds"
    [ (0, 7); (1, 6) ] (List.sort compare !got);
  Network.resume_link net ~src:2 ~dst:1;
  ignore (Engine.run e);
  Alcotest.(check (pair int int)) "released on resume" (2, 5) (List.hd !got);
  check_int "three messages" 3 (Network.messages_sent net)

let test_stats () =
  let e, net = make () in
  Network.set_handler net 1 (fun ~src:_ _ -> ());
  Network.send net ~src:0 ~dst:1 ~bytes:100 ~kind:"a" "x";
  Network.send net ~src:0 ~dst:1 ~bytes:50 ~kind:"b" "y";
  Network.send net ~src:0 ~dst:1 ~bytes:1 ~kind:"a" "z";
  ignore (Engine.run e);
  check_int "messages" 3 (Network.messages_sent net);
  check_int "bytes" 151 (Network.bytes_sent net);
  Alcotest.(check (list (pair string int)))
    "per kind"
    [ ("a", 2); ("b", 1) ]
    (Network.messages_by_kind net);
  Network.reset_stats net;
  check_int "reset messages" 0 (Network.messages_sent net);
  check_int "reset bytes" 0 (Network.bytes_sent net);
  Alcotest.(check (list (pair string int)))
    "reset kinds"
    [ ("a", 0); ("b", 0) ]
    (Network.messages_by_kind net)

let test_send_cost_serializes () =
  (* two sends from the same node depart 5 apart; the second delivery is
     therefore 5 later even though both were issued together *)
  let e, net = make ~latency:(Latency.constant 10.) ~send_cost:5. () in
  let times = ref [] in
  Network.set_handler net 1 (fun ~src:_ _ -> times := Engine.now e :: !times);
  Network.set_handler net 2 (fun ~src:_ _ -> times := Engine.now e :: !times);
  Network.send net ~src:0 ~dst:1 "a";
  Network.send net ~src:0 ~dst:2 "b";
  ignore (Engine.run e);
  Alcotest.(check (list (float 1e-9))) "staggered departures" [ 15.; 20. ]
    (List.sort compare !times)

let test_byte_cost () =
  let e, net = make ~latency:(Latency.constant 10.) ~byte_cost:0.5 () in
  let time = ref 0. in
  Network.set_handler net 1 (fun ~src:_ _ -> time := Engine.now e);
  Network.send net ~src:0 ~dst:1 ~bytes:20 "payload";
  ignore (Engine.run e);
  Alcotest.(check (float 1e-9)) "latency + bytes/bandwidth" 20. !time

let test_latency_models () =
  let rng = Mc_util.Rng.make 5 in
  let u = Latency.uniform rng ~lo:2. ~hi:4. in
  for _ = 1 to 100 do
    let s = Latency.sample u ~src:0 ~dst:1 in
    check "uniform in range" true (s >= 2. && s < 4.)
  done;
  let j = Latency.jitter (Latency.constant 10.) (Mc_util.Rng.make 6) ~spread:1. in
  for _ = 1 to 100 do
    let s = Latency.sample j ~src:0 ~dst:1 in
    check "jitter in range" true (s >= 10. && s < 11.)
  done;
  let m = Latency.matrix [| [| 0.; 7. |]; [| 3.; 0. |] |] in
  Alcotest.(check (float 1e-9)) "matrix src-dst" 7. (Latency.sample m ~src:0 ~dst:1);
  Alcotest.(check (float 1e-9)) "matrix dst-src" 3. (Latency.sample m ~src:1 ~dst:0);
  (* means need no draws *)
  Alcotest.(check (float 1e-9)) "constant mean" 10. (Latency.mean (Latency.constant 10.));
  Alcotest.(check (float 1e-9)) "uniform mean" 3. (Latency.mean u);
  Alcotest.(check (float 1e-9)) "jitter mean" 10.5 (Latency.mean j);
  Alcotest.(check (float 1e-9)) "matrix mean, off the diagonal" 5. (Latency.mean m)

let test_no_handler_error () =
  let e, net = make () in
  Network.send net ~src:0 ~dst:2 "orphan";
  match Engine.run e with
  | (_ : float) -> Alcotest.fail "expected missing-handler failure"
  | exception Invalid_argument _ -> ()

(* A burst on one link keeps one engine event pending for it: the
   link's messages in flight wait behind their head's event. A marker
   event fires first, with the whole burst still in flight, so the
   queue-depth gauge (sampled after each pop) reads what the burst
   keeps pending. *)
let test_burst_one_event () =
  let e, net = make () in
  let reg = Mc_obs.Metrics.Registry.create () in
  Engine.attach_metrics e reg;
  let got = ref [] in
  Network.set_handler net 1 (fun ~src:_ k -> got := k :: !got);
  for k = 1 to 100 do
    Network.send net ~src:0 ~dst:1 k
  done;
  Engine.schedule e ~delay:1. ignore;
  ignore (Engine.run e);
  Alcotest.(check (list int)) "send order" (List.init 100 (fun i -> i + 1)) (List.rev !got);
  let depth = Mc_obs.Metrics.Registry.gauge reg "mc_engine_queue_depth" in
  Alcotest.(check (float 0.)) "queue depth high water" 1.
    (Mc_obs.Metrics.Gauge.high_water depth)

(* Three messages sent at one instant under a constant latency share one
   delivery time. Each delivery schedules a zero-delay event; all three
   messages were scheduled (sent) before those events, so all three are
   delivered first, though the second and third fire from their
   predecessor's event at the time it already holds. *)
let test_tied_deliveries_first () =
  let e, net = make () in
  let log = ref [] in
  Network.set_handler net 1 (fun ~src:_ k ->
      log := Printf.sprintf "deliver %d at %g" k (Engine.now e) :: !log;
      Engine.schedule e ~delay:0. (fun () -> log := Printf.sprintf "after %d" k :: !log));
  for k = 1 to 3 do
    Network.send net ~src:0 ~dst:1 k
  done;
  ignore (Engine.run e);
  Alcotest.(check (list string)) "order"
    [ "deliver 1 at 10"; "deliver 2 at 10"; "deliver 3 at 10"; "after 1"; "after 2"; "after 3" ]
    (List.rev !log)

(* Without latency or sender occupancy a message is due when it is sent:
   it fires after the events already due then and before those
   scheduled after the send, on a link with messages in flight too *)
let test_zero_latency_due_at_once () =
  let e, net = make ~latency:(Latency.constant 0.) () in
  let log = ref [] in
  let note s () = log := s :: !log in
  Network.set_handler net 1 (fun ~src:_ k -> note (Printf.sprintf "deliver %d" k) ());
  Engine.schedule e ~delay:0. (fun () ->
      Engine.schedule e ~delay:0. (note "a");
      Network.send net ~src:0 ~dst:1 1;
      Engine.schedule e ~delay:0. (note "b");
      Network.send net ~src:0 ~dst:1 2;
      Engine.schedule e ~delay:0. (note "c"));
  ignore (Engine.run e);
  Alcotest.(check (list string)) "order" [ "a"; "deliver 1"; "b"; "deliver 2"; "c" ]
    (List.rev !log)

(* a latency model that yields a negative latency would deliver in the
   past: the send is rejected *)
let test_negative_latency_rejected () =
  let e, net = make ~latency:(Latency.matrix [| [| 0.; -5. |]; [| 1.; 0. |] |]) () in
  Network.set_handler net 1 (fun ~src:_ _ -> ());
  match Network.send net ~src:0 ~dst:1 "past" with
  | () -> Alcotest.fail "expected a rejected send"
  | exception Invalid_argument _ -> check_int "nothing scheduled" 0 (Engine.events_processed e)

(* Every link delivers in send order, whatever the send schedule and the
   latency model. Sends fall in the first 100 us, where a delivery time
   is far from the send time relative to the clock, and clamped equal
   delivery times are common under spread latencies. *)
let latency_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun d -> Latency.constant d) (float_range 1. 100.);
        map2
          (fun seed (lo, w) -> Latency.uniform (Mc_util.Rng.make seed) ~lo ~hi:(lo +. w))
          small_nat
          (pair (float_range 0. 60.) (float_range 0.5 80.));
        map2
          (fun seed (d, spread) ->
            Latency.jitter (Latency.constant d) (Mc_util.Rng.make seed) ~spread)
          small_nat
          (pair (float_range 1. 50.) (float_range 0.5 60.));
      ])

type schedule = {
  nodes : int;
  send_cost : float;
  sends : (float * int * int) list; (* send time, src, dst *)
}

(* the [k]-th of the nodes other than [src] *)
let peer ~src k = if k >= src then k + 1 else k

let schedule_gen =
  QCheck.Gen.(
    int_range 2 4 >>= fun nodes ->
    map2
      (fun send_cost sends -> { nodes; send_cost; sends })
      (oneof [ return 0.; float_range 0. 3. ])
      (list_size (int_range 10 80)
         (map3
            (fun at src k -> (at, src, peer ~src k))
            (float_range 0. 100.) (int_bound (nodes - 1)) (int_bound (nodes - 2)))))

let links_keep_send_order =
  QCheck.Test.make ~name:"every link delivers in send order" ~count:300
    (QCheck.make
       ~print:(fun (s, _) ->
         Printf.sprintf "nodes=%d send_cost=%g sends=[%s]" s.nodes s.send_cost
           (String.concat "; "
              (List.map (fun (t, a, b) -> Printf.sprintf "%g:%d->%d" t a b) s.sends)))
       QCheck.Gen.(pair schedule_gen latency_gen))
    (fun (s, latency) ->
      let e = Engine.create () in
      let net = Network.create e ~nodes:s.nodes ~latency ~send_cost:s.send_cost () in
      let sent = Array.make_matrix s.nodes s.nodes 0 in
      let got = Array.make_matrix s.nodes s.nodes [] in
      for dst = 0 to s.nodes - 1 do
        Network.set_handler net dst (fun ~src k -> got.(src).(dst) <- k :: got.(src).(dst))
      done;
      List.iter
        (fun (at, src, dst) ->
          Engine.schedule e ~delay:at (fun () ->
              let k = sent.(src).(dst) in
              sent.(src).(dst) <- k + 1;
              Network.send net ~src ~dst k))
        s.sends;
      ignore (Engine.run e);
      Array.for_all2
        (Array.for_all2 (fun n l -> List.rev l = List.init n Fun.id))
        sent got)

let () =
  Alcotest.run "mc_net"
    [
      ( "network",
        [
          Alcotest.test_case "basic delivery" `Quick test_basic_delivery;
          Alcotest.test_case "fifo per channel" `Quick test_fifo_per_channel;
          Alcotest.test_case "matrix latency delivery" `Quick test_cross_channel_reordering_possible;
          Alcotest.test_case "self send" `Quick test_self_send_immediate;
          Alcotest.test_case "broadcast" `Quick test_broadcast;
          Alcotest.test_case "pause/resume link" `Quick test_pause_resume;
          Alcotest.test_case "pause/resume a fresh link" `Quick
            test_pause_resume_fresh_link;
          Alcotest.test_case "statistics" `Quick test_stats;
          Alcotest.test_case "sender occupancy" `Quick test_send_cost_serializes;
          Alcotest.test_case "byte cost" `Quick test_byte_cost;
          Alcotest.test_case "latency models" `Quick test_latency_models;
          Alcotest.test_case "missing handler" `Quick test_no_handler_error;
          Alcotest.test_case "a burst keeps one event pending" `Quick test_burst_one_event;
          Alcotest.test_case "tied deliveries before zero-delay events" `Quick
            test_tied_deliveries_first;
          Alcotest.test_case "zero latency is due at once" `Quick
            test_zero_latency_due_at_once;
          Alcotest.test_case "negative latency rejected" `Quick
            test_negative_latency_rejected;
          QCheck_alcotest.to_alcotest links_keep_send_order;
        ] );
    ]
