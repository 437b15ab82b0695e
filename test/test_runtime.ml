(* Tests for the mixed-consistency DSM runtime: memory operations,
   synchronization operations, propagation modes, and the recorded
   histories they produce. *)

module Engine = Mc_sim.Engine
module Runtime = Mc_dsm.Runtime
module Config = Mc_dsm.Config
module Network = Mc_net.Network
module Op = Mc_history.Op
module History = Mc_history.History
module Lattice = Mc_consistency.Lattice

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let make ?(procs = 3) ?(propagation = Config.Lazy) ?(record = true)
    ?(await_label = Op.Causal) ?latency () =
  let engine = Engine.create () in
  let cfg =
    { (Config.default ~procs) with propagation; record; await_label }
  in
  let rt = Runtime.create engine ?latency cfg in
  (engine, rt)

let run = Runtime.run

let test_read_own_write () =
  let _, rt = make () in
  let seen = ref (-1) in
  Runtime.spawn_process rt 0 (fun p ->
      Runtime.write p "x" 7;
      seen := Runtime.read p "x");
  ignore (run rt);
  check_int "own write visible" 7 !seen

let test_update_propagation () =
  let _, rt = make () in
  let seen = ref (-1) in
  Runtime.spawn_process rt 0 (fun p -> Runtime.write p "x" 5);
  Runtime.spawn_process rt 1 (fun p ->
      Runtime.await p "x" 5;
      seen := Runtime.read p "x");
  ignore (run rt);
  check_int "propagated" 5 !seen

let test_initial_value_zero () =
  let _, rt = make () in
  let v = ref (-1) in
  Runtime.spawn_process rt 1 (fun p -> v := Runtime.read p "fresh");
  ignore (run rt);
  check_int "initial value" 0 !v

let test_pram_vs_causal_views () =
  (* w(y) then w(x) by p0; p2 receives x's update only through p1's
     forwarded dependency... simpler: force reordering with a link pause:
     p0 -> p2 paused, p0 -> p1 fast, p1 relays by writing z after
     awaiting x. p2 awaits z (from p1), then reads y: causal read must
     block/see it; PRAM read may return 0. Here we check the two views
     directly through read labels after resuming the link. *)
  let engine, rt = make ~procs:3 () in
  let net = Runtime.network rt in
  let pram_y = ref (-1) and causal_y = ref (-1) in
  Network.pause_link net ~src:0 ~dst:2;
  Runtime.spawn_process rt 0 (fun p ->
      Runtime.write p "y" 1;
      Runtime.write p "x" 2);
  Runtime.spawn_process rt 1 (fun p ->
      Runtime.await p "x" 2;
      Runtime.write p "z" 3);
  Runtime.spawn_process rt 2 (fun p ->
      (* z arrives from p1, but p0's updates are still paused: the causal
         view buffers z (its dependencies are missing) *)
      Runtime.compute p 500.;
      pram_y := Runtime.read p ~label:Op.PRAM "z";
      causal_y := Runtime.read p ~label:Op.Causal "z";
      Runtime.compute p 1000.);
  Engine.schedule engine ~delay:1200. (fun () ->
      Network.resume_link net ~src:0 ~dst:2);
  ignore (run rt);
  check_int "pram view applied z immediately" 3 !pram_y;
  check_int "causal view still buffers z" 0 !causal_y

let test_write_lock_mutual_exclusion () =
  let _, rt = make ~procs:3 () in
  let active = ref 0 and max_active = ref 0 and entries = ref 0 in
  for i = 0 to 2 do
    Runtime.spawn_process rt i (fun p ->
        Runtime.write_lock p "m";
        incr active;
        incr entries;
        max_active := max !max_active !active;
        Runtime.compute p 50.;
        decr active;
        Runtime.write_unlock p "m")
  done;
  ignore (run rt);
  check_int "everyone entered" 3 !entries;
  check_int "never concurrent" 1 !max_active

let test_read_locks_shared () =
  let _, rt = make ~procs:3 () in
  let active = ref 0 and max_active = ref 0 in
  for i = 0 to 2 do
    Runtime.spawn_process rt i (fun p ->
        Runtime.read_lock p "m";
        incr active;
        max_active := max !max_active !active;
        Runtime.compute p 200.;
        decr active;
        Runtime.read_unlock p "m")
  done;
  ignore (run rt);
  check "readers overlap" true (!max_active > 1)

let test_lock_transfers_updates () =
  (* Corollary-1 pattern: the value written inside the critical section is
     visible to the next holder, in every propagation mode *)
  List.iter
    (fun propagation ->
      let _, rt = make ~procs:2 ~propagation () in
      let seen = ref (-1) in
      Runtime.spawn_process rt 0 (fun p ->
          Runtime.write_lock p "m";
          Runtime.write p "x" 33;
          Runtime.write_unlock p "m");
      Runtime.spawn_process rt 1 (fun p ->
          Runtime.compute p 500.;
          (* ensure p0 goes first *)
          Runtime.write_lock p "m";
          seen := Runtime.read p "x";
          Runtime.write_unlock p "m");
      ignore (run rt);
      check_int
        (Printf.sprintf "visible under %s" (Config.propagation_to_string propagation))
        33 !seen)
    [ Config.Eager; Config.Lazy; Config.Demand ]

let test_barrier_separates_phases () =
  let _, rt = make ~procs:4 () in
  let ok = ref true in
  for i = 0 to 3 do
    Runtime.spawn_process rt i (fun p ->
        Runtime.write p (Printf.sprintf "a:%d" i) (100 + i);
        Runtime.barrier p;
        for j = 0 to 3 do
          if Runtime.read p ~label:Op.PRAM (Printf.sprintf "a:%d" j) <> 100 + j
          then ok := false
        done;
        Runtime.barrier p)
  done;
  ignore (run rt);
  check "all pre-barrier writes visible after the barrier" true !ok

let test_barrier_multiple_episodes () =
  let _, rt = make ~procs:2 () in
  let trace = ref [] in
  for i = 0 to 1 do
    Runtime.spawn_process rt i (fun p ->
        for round = 1 to 3 do
          Runtime.write p (Printf.sprintf "r:%d:%d" round i) round;
          Runtime.barrier p;
          trace := (round, i) :: !trace
        done)
  done;
  ignore (run rt);
  check_int "six phase completions" 6 (List.length !trace);
  (* no process may be at round r+1 before both finished round r: since the
     trace is appended at barrier exit, rounds must be non-interleaved *)
  let rounds = List.rev_map fst !trace in
  let sorted = List.sort compare rounds in
  Alcotest.(check (list int)) "rounds complete in order" sorted rounds

let test_await_pram_label () =
  let _, rt = make ~procs:2 ~await_label:Op.PRAM () in
  let seen = ref false in
  Runtime.spawn_process rt 0 (fun p -> Runtime.write p "flag" 1);
  Runtime.spawn_process rt 1 (fun p ->
      Runtime.await p "flag" 1;
      seen := true);
  ignore (run rt);
  check "pram await fires" true !seen

let test_counters () =
  let _, rt = make ~procs:3 () in
  let final = ref (-1) in
  Runtime.spawn_process rt 0 (fun p ->
      Runtime.init_counter p "c" 4;
      Runtime.barrier p;
      Runtime.decrement p "c" ~amount:1;
      Runtime.await p "c" 0;
      final := Runtime.read p "c";
      Runtime.barrier p);
  for i = 1 to 2 do
    Runtime.spawn_process rt i (fun p ->
        Runtime.barrier p;
        Runtime.decrement p "c" ~amount:1;
        Runtime.decrement p "c" ~amount:1;
        ignore (Runtime.read p "c");
        Runtime.await p "c" 0;
        Runtime.barrier p)
  done;
  ignore (run rt);
  check_int "counter drained" 0 !final

let test_recorded_history_well_formed_and_mixed () =
  let _, rt = make ~procs:3 () in
  Runtime.spawn_process rt 0 (fun p ->
      Runtime.write_lock p "m";
      Runtime.write p "x" 1;
      Runtime.write_unlock p "m";
      Runtime.barrier p);
  Runtime.spawn_process rt 1 (fun p ->
      Runtime.write_lock p "m";
      ignore (Runtime.read p "x");
      Runtime.write_unlock p "m";
      Runtime.barrier p);
  Runtime.spawn_process rt 2 (fun p ->
      ignore (Runtime.read p ~label:Op.PRAM "x");
      Runtime.barrier p;
      ignore (Runtime.read p "x"));
  ignore (run rt);
  let h = Runtime.history rt in
  check "well-formed" true (History.is_well_formed h);
  check "mixed consistent" true (Lattice.is_consistent h Lattice.Mixed);
  check "acyclic causality" true (History.causality_is_acyclic h)

let test_stats_exposed () =
  let _, rt = make ~procs:2 () in
  Runtime.spawn_process rt 0 (fun p ->
      Runtime.write p "x" 1;
      Runtime.barrier p);
  Runtime.spawn_process rt 1 (fun p ->
      ignore (Runtime.read p "x");
      Runtime.barrier p);
  ignore (run rt);
  let counts = Runtime.op_counts rt in
  check_int "writes counted" 1 (List.assoc "write" counts);
  check_int "reads counted" 1 (List.assoc "read" counts);
  check_int "barriers counted" 2 (List.assoc "barrier" counts);
  check "waits recorded" true (Runtime.wait_summaries rt <> []);
  check "network counted updates" true
    (Network.messages_sent (Runtime.network rt) > 0)

let test_peek_after_run () =
  let _, rt = make ~procs:2 () in
  Runtime.spawn_process rt 0 (fun p ->
      Runtime.write p "x" 9;
      Runtime.barrier p);
  Runtime.spawn_process rt 1 (fun p -> Runtime.barrier p);
  ignore (run rt);
  check_int "peek at writer" 9 (Runtime.peek rt ~proc:0 "x");
  check_int "peek at other replica" 9 (Runtime.peek rt ~proc:1 "x")

let test_eager_flush_messages () =
  (* eager propagation emits flush traffic; lazy does not *)
  let count_flushes propagation =
    let _, rt = make ~procs:3 ~propagation () in
    Runtime.spawn_process rt 0 (fun p ->
        Runtime.write_lock p "m";
        Runtime.write p "x" 1;
        Runtime.write_unlock p "m");
    Runtime.spawn_process rt 1 (fun p -> ignore (Runtime.read p "x"));
    Runtime.spawn_process rt 2 (fun p -> ignore (Runtime.read p "x"));
    ignore (run rt);
    let kinds = Network.messages_by_kind (Runtime.network rt) in
    Option.value ~default:0 (List.assoc_opt "flush_request" kinds)
  in
  check "eager flushes" true (count_flushes Config.Eager > 0);
  check_int "lazy does not flush" 0 (count_flushes Config.Lazy)

let test_demand_blocks_only_written_locations () =
  let _, rt = make ~procs:2 ~propagation:Config.Demand () in
  let y_wait = ref nan and x_val = ref (-1) in
  let engine = Runtime.engine rt in
  Runtime.spawn_process rt 0 (fun p ->
      Runtime.write_lock p "m";
      Runtime.write p "x" 1;
      Runtime.compute p 300.;
      Runtime.write_unlock p "m");
  Runtime.spawn_process rt 1 (fun p ->
      Runtime.compute p 100.;
      Runtime.write_lock p "m";
      (* y was not written in the critical section: reading it is free *)
      let t0 = Engine.now engine in
      ignore (Runtime.read p "y");
      y_wait := Engine.now engine -. t0;
      (* x was: the read may block until the update applies, but returns
         the critical-section value *)
      x_val := Runtime.read p "x";
      Runtime.write_unlock p "m");
  ignore (run rt);
  check "unwritten location read instantly" true (!y_wait < 1.0);
  check_int "written location consistent" 1 !x_val

(* Section 6 assumes FIFO channels, and the PRAM view applies each
   update on receipt. Process 0 writes each of 20 locations twice, back
   to back, from a seeded offset in the first 100 us, where a link's
   deliveries are clamped to equal times most often; after a barrier
   process 1 reads them all PRAM. A link that delivers the second write
   first leaves the older value in the PRAM view: a stale read, which
   the online checker must flag as well. *)
let fifo_probe seed =
  let engine = Engine.create () in
  let rng = Mc_util.Rng.make seed in
  let latency = Mc_net.Latency.uniform (Mc_util.Rng.split rng) ~lo:30. ~hi:70. in
  let cfg = { (Config.default ~procs:2) with check_online = true } in
  let rt = Runtime.create engine ~latency cfg in
  let offset = Mc_util.Rng.float_in rng 0. 100. in
  let locs = Array.init 20 (fun i -> "x" ^ string_of_int i) in
  let stale = ref 0 in
  Runtime.spawn_process rt 0 (fun p ->
      Runtime.compute p offset;
      Array.iteri
        (fun i loc ->
          Runtime.write p loc ((2 * i) + 1);
          Runtime.write p loc ((2 * i) + 2))
        locs;
      Runtime.barrier p);
  Runtime.spawn_process rt 1 (fun p ->
      Runtime.barrier p;
      Array.iteri
        (fun i loc ->
          if Runtime.read p ~label:Op.PRAM loc <> (2 * i) + 2 then incr stale)
        locs);
  ignore (run rt);
  let failures =
    match Runtime.online_checker rt with
    | Some chk -> List.length (Mc_consistency.Online.failures chk)
    | None -> Alcotest.fail "no online checker"
  in
  (!stale, failures)

let test_fifo_probe () =
  let stale = ref 0 and failures = ref 0 in
  for seed = 1 to 1000 do
    let s, f = fifo_probe seed in
    stale := !stale + s;
    failures := !failures + f
  done;
  check_int "stale PRAM reads over 1,000 latency seeds" 0 !stale;
  check_int "online failures over 1,000 latency seeds" 0 !failures

let () =
  Alcotest.run "mc_dsm.runtime"
    [
      ( "memory",
        [
          Alcotest.test_case "read own write" `Quick test_read_own_write;
          Alcotest.test_case "update propagation" `Quick test_update_propagation;
          Alcotest.test_case "initial value" `Quick test_initial_value_zero;
          Alcotest.test_case "pram vs causal views" `Quick test_pram_vs_causal_views;
          Alcotest.test_case "counters" `Quick test_counters;
        ] );
      ( "locks",
        [
          Alcotest.test_case "write locks exclude" `Quick test_write_lock_mutual_exclusion;
          Alcotest.test_case "read locks share" `Quick test_read_locks_shared;
          Alcotest.test_case "critical-section updates transfer" `Quick
            test_lock_transfers_updates;
          Alcotest.test_case "eager flush traffic" `Quick test_eager_flush_messages;
          Alcotest.test_case "demand blocks only the write-set" `Quick
            test_demand_blocks_only_written_locations;
        ] );
      ( "barriers",
        [
          Alcotest.test_case "phases separated" `Quick test_barrier_separates_phases;
          Alcotest.test_case "FIFO links keep the PRAM view fresh" `Quick
            test_fifo_probe;
          Alcotest.test_case "multiple episodes" `Quick test_barrier_multiple_episodes;
        ] );
      ( "awaits",
        [ Alcotest.test_case "pram-labelled await" `Quick test_await_pram_label ] );
      ( "recording",
        [
          Alcotest.test_case "well-formed mixed histories" `Quick
            test_recorded_history_well_formed_and_mixed;
          Alcotest.test_case "statistics" `Quick test_stats_exposed;
          Alcotest.test_case "peek" `Quick test_peek_after_run;
        ] );
    ]
