(* End-to-end randomized tests: random programs run on the DSM runtime
   under randomized latencies, and the recorded histories are checked
   against the formal definitions. This validates the implementation
   against the model (Definition 4) and the paper's Theorem 1 /
   Corollaries 1-2 on real executions. *)

module Engine = Mc_sim.Engine
module Runtime = Mc_dsm.Runtime
module Config = Mc_dsm.Config
module Latency = Mc_net.Latency
module Op = Mc_history.Op
module History = Mc_history.History
module Lattice = Mc_consistency.Lattice
module Sequential = Mc_consistency.Sequential
module Commute = Mc_consistency.Commute
module Program_class = Mc_consistency.Program_class
module Rng = Mc_util.Rng

let check = Alcotest.(check bool)

let make_runtime ~seed ~procs ?propagation () =
  let engine = Engine.create () in
  let cfg =
    let base = { (Config.default ~procs) with record = true } in
    match propagation with Some p -> { base with propagation = p } | None -> base
  in
  let latency = Latency.uniform (Rng.make seed) ~lo:5. ~hi:200. in
  (engine, Runtime.create engine ~latency cfg)

(* ------------------------------------------------------------------ *)
(* Random unsynchronized programs: runtime must always produce        *)
(* well-formed, mixed-consistent histories                            *)
(* ------------------------------------------------------------------ *)

let random_plain_program rng ~procs ~ops_per_proc rt =
  let locs = [| "a"; "b"; "c" |] in
  let next_value = ref 0 in
  for i = 0 to procs - 1 do
    let plan =
      List.init ops_per_proc (fun _ ->
          let loc = Rng.pick rng locs in
          if Rng.bool rng then begin
            incr next_value;
            `Write (loc, !next_value)
          end
          else `Read (loc, if Rng.bool rng then Op.PRAM else Op.Causal))
    in
    Runtime.spawn_process rt i (fun p ->
        List.iter
          (function
            | `Write (loc, v) -> Runtime.write p loc v
            | `Read (loc, label) -> ignore (Runtime.read p ~label loc))
          plan)
  done

let test_random_runs_mixed_consistent () =
  for seed = 1 to 30 do
    let rng = Rng.make (1000 + seed) in
    let procs = 2 + Rng.int rng 3 in
    let _, rt = make_runtime ~seed ~procs () in
    random_plain_program rng ~procs ~ops_per_proc:8 rt;
    ignore (Runtime.run rt);
    let h = Runtime.history rt in
    check
      (Printf.sprintf "well-formed (seed %d)" seed)
      true (History.is_well_formed h);
    (match Lattice.failures h Lattice.Mixed with
    | [] -> ()
    | fs ->
      Alcotest.failf "seed %d: %d mixed-consistency failures, first: %s" seed
        (List.length fs)
        (Format.asprintf "%a" Lattice.pp_failure (List.hd fs)));
    (* every run of this runtime is also fully causal on the causal view:
       check causal reads only (PRAM-labelled reads may legitimately be
       non-causal) *)
    check "acyclic" true (History.causality_is_acyclic h)
  done

(* with barriers inserted at aligned rounds the histories stay mixed
   consistent and barrier counts line up *)
let test_random_runs_with_barriers () =
  for seed = 1 to 15 do
    let rng = Rng.make (2000 + seed) in
    let procs = 2 + Rng.int rng 2 in
    let _, rt = make_runtime ~seed ~procs () in
    let next_value = ref 0 in
    for i = 0 to procs - 1 do
      let rounds =
        List.init 3 (fun _ ->
            List.init 3 (fun _ ->
                let loc = Rng.pick rng [| "u"; "v" |] in
                if Rng.bool rng then begin
                  incr next_value;
                  `Write (loc, !next_value)
                end
                else `Read loc))
      in
      Runtime.spawn_process rt i (fun p ->
          List.iter
            (fun round ->
              List.iter
                (function
                  | `Write (loc, v) -> Runtime.write p loc v
                  | `Read loc ->
                    ignore
                      (Runtime.read p
                         ~label:(if Rng.bool rng then Op.PRAM else Op.Causal)
                         loc))
                round;
              Runtime.barrier p)
            rounds)
    done;
    ignore (Runtime.run rt);
    let h = Runtime.history rt in
    check "well-formed" true (History.is_well_formed h);
    check "mixed consistent" true (Lattice.is_consistent h Lattice.Mixed)
  done

(* ------------------------------------------------------------------ *)
(* Corollary 1 on real executions: entry-consistent random programs    *)
(* with causal reads produce sequentially consistent histories         *)
(* ------------------------------------------------------------------ *)

let test_corollary1_on_executions () =
  for seed = 1 to 12 do
    let rng = Rng.make (3000 + seed) in
    let procs = 2 in
    let _, rt = make_runtime ~seed ~procs () in
    let next_value = ref 0 in
    for i = 0 to procs - 1 do
      let sections =
        List.init 2 (fun _ ->
            let write = Rng.bool rng in
            incr next_value;
            (write, !next_value))
      in
      Runtime.spawn_process rt i (fun p ->
          List.iter
            (fun (write, v) ->
              if write then begin
                Runtime.write_lock p "guard";
                Runtime.write p "shared" v;
                ignore (Runtime.read p "shared");
                Runtime.write_unlock p "guard"
              end
              else begin
                Runtime.read_lock p "guard";
                ignore (Runtime.read p "shared");
                Runtime.read_unlock p "guard"
              end)
            sections)
    done;
    ignore (Runtime.run rt);
    let h = Runtime.history rt in
    check "entry-consistent" true (Program_class.is_entry_consistent h);
    check "causal reads" true (Lattice.is_consistent h Lattice.Causal);
    (match Sequential.is_sequentially_consistent h with
    | Sequential.Consistent -> ()
    | Sequential.Unknown -> () (* search budget exhausted: inconclusive *)
    | Sequential.Inconsistent ->
      Alcotest.failf "seed %d: entry-consistent execution not SC" seed)
  done

(* ------------------------------------------------------------------ *)
(* Corollary 2 on real executions: phase programs with PRAM reads      *)
(* ------------------------------------------------------------------ *)

let test_corollary2_on_executions () =
  for seed = 1 to 12 do
    let procs = 3 in
    let _, rt = make_runtime ~seed:(4000 + seed) ~procs () in
    (* each process owns one variable; in each phase it updates its own
       variable and reads the others' previous-phase values *)
    for i = 0 to procs - 1 do
      Runtime.spawn_process rt i (fun p ->
          for round = 1 to 2 do
            Runtime.write p (Printf.sprintf "own:%d" i) ((round * 10) + i);
            Runtime.barrier p;
            for j = 0 to procs - 1 do
              ignore (Runtime.read p ~label:Op.PRAM (Printf.sprintf "own:%d" j))
            done;
            Runtime.barrier p
          done)
    done;
    ignore (Runtime.run rt);
    let h = Runtime.history rt in
    check "PRAM-consistent program" true (Program_class.is_pram_consistent h);
    check "all PRAM reads valid" true (Lattice.is_consistent h Lattice.PRAM);
    match Sequential.is_sequentially_consistent ~max_states:400_000 h with
    | Sequential.Consistent | Sequential.Unknown -> ()
    | Sequential.Inconsistent ->
      Alcotest.failf "seed %d: PRAM-consistent execution not SC" seed
  done

(* ------------------------------------------------------------------ *)
(* Theorem 1 premise checking on real executions                       *)
(* ------------------------------------------------------------------ *)

let test_theorem1_on_disjoint_writers () =
  (* every process touches only its own variable: all causally-unrelated
     pairs are on distinct locations and therefore commute *)
  let _, rt = make_runtime ~seed:77 ~procs:3 () in
  for i = 0 to 2 do
    Runtime.spawn_process rt i (fun p ->
        Runtime.write p (Printf.sprintf "w:%d" i) (i + 1);
        ignore (Runtime.read p (Printf.sprintf "w:%d" i));
        Runtime.write p (Printf.sprintf "w:%d" i) (i + 10))
  done;
  ignore (Runtime.run rt);
  let h = Runtime.history rt in
  check "premises hold" true (Commute.theorem1_holds h);
  check "hence SC" true
    (Sequential.is_sequentially_consistent h <> Sequential.Inconsistent)

(* ------------------------------------------------------------------ *)
(* Counter convergence under concurrency                               *)
(* ------------------------------------------------------------------ *)

let test_counters_converge () =
  for seed = 1 to 10 do
    let procs = 4 in
    let _, rt = make_runtime ~seed:(5000 + seed) ~procs () in
    let rng = Rng.make seed in
    let per_proc = Array.init procs (fun _ -> 1 + Rng.int rng 5) in
    let total = Array.fold_left ( + ) 0 per_proc in
    let finals = Array.make procs max_int in
    for i = 0 to procs - 1 do
      Runtime.spawn_process rt i (fun p ->
          if i = 0 then Runtime.init_counter p "c" total;
          Runtime.barrier p;
          for _ = 1 to per_proc.(i) do
            Runtime.decrement p "c" ~amount:1
          done;
          Runtime.await p "c" 0;
          finals.(i) <- Runtime.read p "c")
    done;
    ignore (Runtime.run rt);
    Array.iteri
      (fun i v -> check (Printf.sprintf "proc %d sees zero" i) true (v = 0))
      finals
  done

(* ------------------------------------------------------------------ *)
(* Propagation-mode equivalence                                        *)
(* ------------------------------------------------------------------ *)

let test_propagation_modes_agree () =
  (* the same lock-protected accumulation program yields the same final
     value in every propagation mode *)
  let run propagation =
    let _, rt = make_runtime ~seed:99 ~procs:3 ~propagation () in
    let out = ref (-1) in
    for i = 0 to 2 do
      Runtime.spawn_process rt i (fun p ->
          for _ = 1 to 3 do
            Runtime.write_lock p "m";
            let v = Runtime.read p "acc" in
            Runtime.write p "acc" (v + 1);
            Runtime.write_unlock p "m"
          done;
          Runtime.barrier p;
          if i = 0 then out := Runtime.read p "acc")
    done;
    ignore (Runtime.run rt);
    !out
  in
  List.iter
    (fun propagation ->
      Alcotest.(check int)
        (Config.propagation_to_string propagation)
        9 (run propagation))
    [ Config.Eager; Config.Lazy; Config.Demand ]

(* a complete application run checked against the formal definitions:
   the whole recorded history of a solver execution (hundreds of
   operations) is well-formed and mixed consistent, and its PRAM-phase
   program classifies under Corollary 2 *)
let test_full_solver_history_checks () =
  let problem = Mc_apps.Linear_solver.Problem.generate ~seed:5 ~n:6 in
  let engine = Engine.create () in
  let cfg = { (Config.default ~procs:3) with record = true } in
  let rt = Runtime.create engine cfg in
  let res =
    Mc_apps.Linear_solver.launch
      ~spawn:(Mc_dsm.Api.spawn rt)
      ~procs:3 ~variant:Mc_apps.Linear_solver.Barrier_pram problem
  in
  ignore (Runtime.run rt);
  ignore (Option.get !res);
  let h = Runtime.history rt in
  check "full run has substance" true (History.length h > 150);
  check "well-formed" true (History.is_well_formed h);
  check "mixed consistent" true (Lattice.is_consistent h Lattice.Mixed);
  check "PRAM-consistent program (Cor. 2)" true
    (Program_class.is_pram_consistent h)

let test_full_cholesky_history_checks () =
  let m = Mc_apps.Sparse_spd.generate ~seed:3 ~n:8 ~density:0.3 in
  let engine = Engine.create () in
  let cfg = { (Config.default ~procs:3) with record = true } in
  let rt = Runtime.create engine cfg in
  let res =
    Mc_apps.Cholesky.launch
      ~spawn:(Mc_dsm.Api.spawn rt)
      ~procs:3 ~variant:Mc_apps.Cholesky.Lock_based m
  in
  ignore (Runtime.run rt);
  ignore (Option.get !res);
  let h = Runtime.history rt in
  check "well-formed" true (History.is_well_formed h);
  check "mixed consistent" true (Lattice.is_consistent h Lattice.Mixed)

(* determinism: the same seed gives the same history *)
let test_determinism () =
  let run () =
    let rng = Rng.make 4242 in
    let _, rt = make_runtime ~seed:4242 ~procs:3 () in
    random_plain_program rng ~procs:3 ~ops_per_proc:10 rt;
    ignore (Runtime.run rt);
    Array.to_list (Array.map Op.to_string (History.ops (Runtime.history rt)))
  in
  Alcotest.(check (list string)) "identical histories" (run ()) (run ())

let () =
  Alcotest.run "integration"
    [
      ( "model-conformance",
        [
          Alcotest.test_case "random runs are mixed consistent" `Slow
            test_random_runs_mixed_consistent;
          Alcotest.test_case "random runs with barriers" `Slow
            test_random_runs_with_barriers;
          Alcotest.test_case "corollary 1 on executions" `Slow
            test_corollary1_on_executions;
          Alcotest.test_case "corollary 2 on executions" `Slow
            test_corollary2_on_executions;
          Alcotest.test_case "theorem 1 premises" `Quick
            test_theorem1_on_disjoint_writers;
          Alcotest.test_case "full solver run checks out" `Slow
            test_full_solver_history_checks;
          Alcotest.test_case "full cholesky run checks out" `Slow
            test_full_cholesky_history_checks;
        ] );
      ( "convergence",
        [
          Alcotest.test_case "counters converge" `Quick test_counters_converge;
          Alcotest.test_case "propagation modes agree" `Quick
            test_propagation_modes_agree;
          Alcotest.test_case "determinism" `Quick test_determinism;
        ] );
    ]
