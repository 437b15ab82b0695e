(* Allocation ceilings of the simulator's hot paths.

   [Gc.minor_words] counts the words allocated on the minor heap
   exactly, so each figure below is the same on every run of a given
   binary: one scheduled event, one fiber delay (an operation's cost
   charge) run inline and one that suspends, one delivered network
   message, one deliverable update received by a replica, the words per
   engine event of a whole lock-based Cholesky run, the words per
   checked operation of the online-checked handshake solver and of a
   replay of its recorded history, and the words of checking
   well-formedness, consistency and lint on a recorded Cholesky
   history. Each is measured after a warm-up, averaged over a batch
   (the figure includes a few words per batch of the measurement
   itself), and must stay at or under its ceiling; a change that adds
   allocation to one of these paths fails here. The ceilings are the
   measured values of the current code, rounded up. *)

module Engine = Mc_sim.Engine
module Network = Mc_net.Network
module Protocol = Mc_dsm.Protocol
module Replica = Mc_dsm.Replica
module Runtime = Mc_dsm.Runtime
module Config = Mc_dsm.Config
module Cost = Mc_dsm.Cost
module Api = Mc_dsm.Api
module Sparse = Mc_apps.Sparse_spd
module Cholesky = Mc_apps.Cholesky
module Solver = Mc_apps.Linear_solver
module Online = Mc_consistency.Online
module Lattice = Mc_consistency.Lattice
module History = Mc_history.History
module Analysis = Mc_analysis.Analysis

let batch = 1000

let check_ceiling what ~ceiling words =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.3f words (ceiling %g)" what words ceiling)
    true (words <= ceiling)

(* words per call of [f] over a batch, after one warm-up batch *)
let per_call f =
  f ();
  let w0 = Gc.minor_words () in
  f ();
  (Gc.minor_words () -. w0) /. float_of_int batch

let test_event () =
  let e = Engine.create () in
  let action () = () in
  let words =
    per_call (fun () ->
        for _ = 1 to batch do
          Engine.schedule e ~delay:1. action
        done;
        ignore (Engine.run e))
  in
  check_ceiling "one scheduled event" ~ceiling:2.01 words

(* A delay whose timer would be the next event, as for one fiber alone,
   runs inline: no suspension, no event *)
let test_inline_delay () =
  let e = Engine.create () in
  let words = ref nan in
  Engine.spawn e (fun () ->
      words :=
        per_call (fun () ->
            for _ = 1 to batch do
              Engine.delay e Cost.op_cost
            done));
  ignore (Engine.run e);
  check_ceiling "one inline Engine.delay" ~ceiling:0.01 !words

(* Two fibers in lockstep wake at the same times, so each delay's timer
   has the other's beside it: every delay suspends and takes its two
   events. The figure is per delay, over both fibers. *)
let test_suspending_delay () =
  let e = Engine.create () in
  let delays () =
    for _ = 1 to batch / 2 do
      Engine.delay e Cost.op_cost
    done
  in
  let w0 = ref 0. and w1 = ref 0. in
  Engine.spawn e (fun () ->
      delays ();
      w0 := Gc.minor_words ();
      delays ();
      w1 := Gc.minor_words ());
  Engine.spawn e (fun () ->
      delays ();
      delays ());
  ignore (Engine.run e);
  check_ceiling "one suspending Engine.delay" ~ceiling:7.01
    ((!w1 -. !w0) /. float_of_int batch)

let test_send () =
  let e = Engine.create () in
  let net = Cost.network e ~nodes:2 () in
  Network.set_handler net 1 (fun ~src:_ () -> ());
  let words =
    per_call (fun () ->
        for _ = 1 to batch do
          Network.send net ~src:0 ~dst:1 ~bytes:Cost.update_bytes ~kind:"update" ()
        done;
        ignore (Engine.run e))
  in
  check_ceiling "one delivered Network.send" ~ceiling:16.01 words

(* writer 0's updates, each deliverable on arrival at node 1 *)
let test_receive () =
  let r = Replica.create (Engine.create ()) ~id:1 ~n:2 () in
  let locs = Array.init 8 (fun i -> "x" ^ string_of_int i) in
  let useq = ref 0 in
  let updates () =
    Array.init batch (fun i ->
        incr useq;
        {
          Protocol.writer = 0;
          useq = !useq;
          dep = [| !useq - 1; 0 |];
          loc = locs.(i mod Array.length locs);
          numeric = i;
          tag = !useq;
          is_dec = false;
        })
  in
  let warm = updates () and timed = updates () in
  let next = ref warm in
  let words = per_call (fun () -> Array.iter (Replica.receive r) !next; next := timed) in
  Alcotest.(check int) "all applied" 0 (Replica.pending_count r);
  Alcotest.(check (pair int int)) "last update visible" (batch - 1, !useq)
    (Replica.causal_read r locs.((batch - 1) mod Array.length locs));
  check_ceiling "one deliverable Replica.receive" ~ceiling:0.01 words

(* mcdsm cholesky --variant lock -n 96: the benchmark's cholesky-locks
   program on the CLI's default inputs *)
let test_cholesky () =
  let m = Sparse.generate ~seed:42 ~n:96 ~density:0.2 in
  let rt = Runtime.create (Engine.create ()) (Config.default ~procs:4) in
  let result =
    Cholesky.launch ~spawn:(Api.spawn rt) ~procs:4 ~variant:Cholesky.Lock_based m
  in
  let w0 = Gc.minor_words () in
  let sim_time = Runtime.run rt in
  let words = Gc.minor_words () -. w0 in
  let events = Engine.events_processed (Runtime.engine rt) in
  Alcotest.(check (float 1e-6)) "sim time" 469205.5
    (Float.round (sim_time *. 10.) /. 10.);
  Alcotest.(check bool) "exact" true
    ((Option.get !result).Cholesky.l = Sparse.factor_reference m);
  check_ceiling
    (Printf.sprintf "words per event of a lock-based Cholesky run (%d events)" events)
    ~ceiling:12.33 (words /. float_of_int events)

(* mcdsm solver --variant handshake --check-online -n 96 -w 8: the
   benchmark's solver-online program, every operation recorded into the
   streaming checker *)
let test_solver_online () =
  let procs = 9 in
  let problem = Solver.Problem.generate ~seed:42 ~n:96 in
  let rt = Runtime.create (Engine.create ()) { (Config.default ~procs) with check_online = true } in
  let result =
    Solver.launch ~spawn:(Api.spawn rt) ~procs ~variant:Solver.Handshake_causal problem
  in
  let w0 = Gc.minor_words () in
  let sim_time = Runtime.run rt in
  let words = Gc.minor_words () -. w0 in
  let stats = Online.stats (Option.get (Runtime.online_checker rt)) in
  Alcotest.(check (float 1e-6)) "sim time" 2468.5 (Float.round (sim_time *. 10.) /. 10.);
  Alcotest.(check int) "ops checked" 28833 stats.Online.ops_checked;
  Alcotest.(check int) "failures" 0 stats.Online.failure_count;
  Alcotest.(check bool) "exact" true
    ((Option.get !result).Solver.x = (Solver.reference ~variant:Solver.Handshake_causal problem).Solver.x);
  check_ceiling
    (Printf.sprintf "words per checked op of the online-checked handshake solver (%d ops)"
       stats.Online.ops_checked)
    ~ceiling:72.0 (words /. float_of_int stats.Online.ops_checked)

(* the same program recorded, then replayed through [Online.check] (the
   benchmark's online.replay_s). The replay announces each value dead
   after its last reader (a value nobody reads after its writer), so
   every summary is reclaimed by the end, as the runtime's stability
   sweeps do in a live run. *)
let test_solver_replay () =
  let procs = 9 in
  let problem = Solver.Problem.generate ~seed:42 ~n:96 in
  let rt = Runtime.create (Engine.create ()) { (Config.default ~procs) with record = true } in
  ignore (Solver.launch ~spawn:(Api.spawn rt) ~procs ~variant:Solver.Handshake_causal problem);
  ignore (Runtime.run rt);
  let h = Runtime.history rt in
  ignore (Online.check h);
  let w0 = Gc.minor_words () in
  let chk = Online.check h in
  let words = Gc.minor_words () -. w0 in
  let stats = Online.stats chk in
  Alcotest.(check int) "ops checked" 28833 stats.Online.ops_checked;
  Alcotest.(check int) "failures" 0 stats.Online.failure_count;
  Alcotest.(check int) "live summaries" 0 stats.Online.live_summaries;
  check_ceiling
    (Printf.sprintf "words per op of the replayed handshake solver history (%d ops)"
       stats.Online.ops_checked)
    ~ceiling:43.01 (words /. float_of_int stats.Online.ops_checked)

(* mcdsm cholesky -n 20 --check: the benchmark's check-offline history
   (1,592 operations), checked for well-formedness, at Mixed and linted.
   Well-formedness groups the operations by process and object, so its
   words grow with the history. The other two are streamable work: the
   Mixed check is one Online replay, and the advisor reads the failure
   sets of all its lattice points (six here) from one more, so the
   words grow with the history, not with readers times points.
   Whether the history meets the stream's restrictions is decided by
   the Mixed check and memoized, so the advisor's replay does not
   decide it again. *)
let test_check_offline () =
  let m = Sparse.generate ~seed:42 ~n:20 ~density:0.2 in
  let rt = Runtime.create (Engine.create ()) { (Config.default ~procs:4) with record = true } in
  let result =
    Cholesky.launch ~spawn:(Api.spawn rt) ~procs:4 ~variant:Cholesky.Lock_based m
  in
  ignore (Runtime.run rt);
  let h = Runtime.history rt in
  let w = Gc.minor_words () in
  let well_formed = History.is_well_formed h in
  let w0 = Gc.minor_words () in
  let failures = Lattice.failures h Lattice.Mixed in
  let w1 = Gc.minor_words () in
  let report = Analysis.analyze h in
  let w2 = Gc.minor_words () in
  Alcotest.(check int) "ops" 1592 (History.length h);
  Alcotest.(check bool) "well-formed" true well_formed;
  Alcotest.(check bool) "exact" true
    ((Option.get !result).Cholesky.l = Sparse.factor_reference m);
  Alcotest.(check int) "mixed failures" 0 (List.length failures);
  Alcotest.(check int) "lint errors" 0 report.Analysis.errors;
  check_ceiling "minor words of History.is_well_formed h" ~ceiling:86_748. (w0 -. w);
  check_ceiling "minor words of Lattice.failures h Mixed" ~ceiling:133_907. (w1 -. w0);
  check_ceiling "minor words of Analysis.analyze h" ~ceiling:755_763. (w2 -. w1)

let () =
  Alcotest.run "alloc"
    [
      ( "ceilings",
        [
          Alcotest.test_case "scheduled event" `Quick test_event;
          Alcotest.test_case "inline fiber delay" `Quick test_inline_delay;
          Alcotest.test_case "fiber delay" `Quick test_suspending_delay;
          Alcotest.test_case "network send" `Quick test_send;
          Alcotest.test_case "replica receive" `Quick test_receive;
          Alcotest.test_case "cholesky run" `Quick test_cholesky;
          Alcotest.test_case "online-checked solver run" `Quick test_solver_online;
          Alcotest.test_case "replayed solver history" `Quick test_solver_replay;
          Alcotest.test_case "checked and linted Cholesky history" `Quick test_check_offline;
        ] );
    ]
