(* Differential tests of the streaming pipeline against the offline
   record-then-check stack:

   - the online mixed-consistency checker must reproduce
     [Lattice.failures h Mixed] verdict-for-verdict (including [Overwritten]
     diagnostics) on random histories with locks, barriers, subset
     barriers, awaits and all three read labels;
   - [Hb.Online] must answer every happens-before query like [Hb];
   - the engine must retire operations (bounded in-flight window) on
     workloads with synchronization;
   - recorder edge cases: overlapping fiber tokens, grant sequences,
     out-of-range processes. *)

module Op = Mc_history.Op
module History = Mc_history.History
module Recorder = Mc_history.Recorder
module Stream = Mc_history.Stream
module Dsl = Mc_history.Dsl
module Lattice = Mc_consistency.Lattice
module Online = Mc_consistency.Online
module Read_rule = Mc_consistency.Read_rule
module Hb = Mc_analysis.Hb

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Random histories with synchronization                               *)
(* ------------------------------------------------------------------ *)

(* Per process, a program of segments separated by global barriers; a
   segment is a list of simple choices. Writes get globally unique
   values; reads and awaits guess among the written values or 0.
   Critical sections take whole-section grant numbers in (segment,
   process) order so the grant order usually agrees with the barrier
   order (cyclic outcomes are discarded like everywhere else). *)

type simple = {
  s_is_write : bool;
  s_loc : int;
  s_guess : int;
  s_label : int; (* 0 PRAM, 1 Causal, 2+ group selector *)
}

type choice =
  | Simple of simple
  | Section of bool * int * simple list (* write?, lock, body *)
  | Await_of of int * int (* loc, guess *)

type program = choice list list (* segments, separated by barriers *)

let simple_gen =
  QCheck.Gen.(
    map
      (fun (w, loc, g, l) -> { s_is_write = w; s_loc = loc; s_guess = g; s_label = l })
      (tup4 bool (int_bound 2) (int_bound 11) (int_bound 3)))

let choice_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun s -> Simple s) simple_gen);
        ( 2,
          map3
            (fun w lock body -> Section (w, lock, body))
            bool (int_bound 1)
            (list_size (int_bound 2) simple_gen) );
        (1, map2 (fun loc g -> Await_of (loc, g)) (int_bound 2) (int_bound 11));
      ])

let program_gen ~segments ~max_ops =
  QCheck.Gen.(list_size (return segments) (list_size (int_bound max_ops) choice_gen))

let programs_gen ~procs ~segments ~max_ops =
  QCheck.Gen.(list_size (return procs) (program_gen ~segments ~max_ops))

(* materialize: pre-assign write values left-to-right so guesses can
   refer to any of them, then emit Dsl specs with grant numbers *)
let history_of_programs ~procs (progs : program list) =
  let next_value = ref 0 in
  let values = ref [ 0 ] in
  let collect_simple s =
    if s.s_is_write then begin
      incr next_value;
      values := !next_value :: !values
    end
  in
  List.iter
    (List.iter
       (List.iter (function
         | Simple s -> collect_simple s
         | Section (_, _, body) -> List.iter collect_simple body
         | Await_of _ -> ())))
    progs;
  let values = Array.of_list (List.rev !values) in
  let next_value = ref 0 in
  let lock_seq = Array.make 2 0 in
  let label_of proc l =
    match l with
    | 0 -> Op.PRAM
    | 1 -> Op.Causal
    | 2 -> Op.Group (List.sort_uniq compare [ proc; (proc + 1) mod procs ])
    | _ -> Op.Group (List.init procs Fun.id)
  in
  let spec_of_simple proc s =
    if s.s_is_write then begin
      incr next_value;
      Dsl.w ("v" ^ string_of_int s.s_loc) !next_value
    end
    else
      let v = values.(s.s_guess mod Array.length values) in
      match label_of proc s.s_label with
      | Op.PRAM -> Dsl.rp ("v" ^ string_of_int s.s_loc) v
      | Op.Causal -> Dsl.rc ("v" ^ string_of_int s.s_loc) v
      | Op.Group g -> Dsl.rg g ("v" ^ string_of_int s.s_loc) v
  in
  let segments = List.length (List.hd progs) in
  (* per proc, per segment, the emitted spec list *)
  let out = Array.make_matrix procs segments [] in
  for seg = 0 to segments - 1 do
    List.iteri
      (fun proc prog ->
        let choices = List.nth prog seg in
        let specs =
          List.concat_map
            (function
              | Simple s -> [ spec_of_simple proc s ]
              | Section (w, lock, body) ->
                let l = "m" ^ string_of_int lock in
                let s0 = lock_seq.(lock) in
                lock_seq.(lock) <- s0 + 2;
                let body = List.map (spec_of_simple proc) body in
                if w then
                  (Dsl.wl ~seq:s0 l :: body) @ [ Dsl.wu ~seq:(s0 + 1) l ]
                else (Dsl.rl ~seq:s0 l :: body) @ [ Dsl.ru ~seq:(s0 + 1) l ]
              | Await_of (loc, g) ->
                let v = values.(g mod Array.length values) in
                [ Dsl.await ("v" ^ string_of_int loc) v ])
            choices
        in
        out.(proc).(seg) <- specs)
      progs
  done;
  let per_proc =
    List.init procs (fun proc ->
        List.concat
          (List.init segments (fun seg ->
               out.(proc).(seg)
               @ if seg < segments - 1 then [ Dsl.bar seg ] else [])))
  in
  Dsl.make ~procs per_proc

let sync_history_arb ~procs ~segments ~max_ops =
  QCheck.make
    ~print:(fun progs ->
      Format.asprintf "%a" History.pp (history_of_programs ~procs progs))
    (programs_gen ~procs ~segments ~max_ops)

let acyclic h = QCheck.assume (History.causality_is_acyclic h)

let online_matches_offline h =
  acyclic h;
  let offline = Lattice.failures h Lattice.Mixed in
  let chk = Online.check h in
  (* failure lists must agree exactly: ids, labels and diagnostics *)
  if offline <> Online.failures chk then begin
    Format.eprintf "history:@.%a@.offline:@." History.pp h;
    List.iter (fun f -> Format.eprintf "  %a@." Lattice.pp_failure f) offline;
    Format.eprintf "online:@.";
    List.iter (fun f -> Format.eprintf "  %a@." Lattice.pp_failure f)
      (Online.failures chk);
    false
  end
  else true

let online_diff_memory_only =
  QCheck.Test.make ~name:"online = offline on memory-only histories" ~count:500
    (sync_history_arb ~procs:3 ~segments:1 ~max_ops:6)
    (fun progs -> online_matches_offline (history_of_programs ~procs:3 progs))

let online_diff_sync =
  QCheck.Test.make ~name:"online = offline with locks, barriers, awaits"
    ~count:500
    (sync_history_arb ~procs:3 ~segments:3 ~max_ops:4)
    (fun progs -> online_matches_offline (history_of_programs ~procs:3 progs))

let online_diff_more_procs =
  QCheck.Test.make ~name:"online = offline on 4 processes" ~count:200
    (sync_history_arb ~procs:4 ~segments:2 ~max_ops:4)
    (fun progs -> online_matches_offline (history_of_programs ~procs:4 progs))

(* ------------------------------------------------------------------ *)
(* Hb.Online differential                                              *)
(* ------------------------------------------------------------------ *)

let hb_online_matches h =
  acyclic h;
  let a = Hb.of_history h in
  let b = Hb.Online.of_history h in
  let n = History.length h in
  let ok = ref true in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if Hb.hb a i j <> Hb.hb b i j then ok := false
    done
  done;
  !ok

let hb_online_diff =
  QCheck.Test.make ~name:"Hb.Online = Hb on all pairs" ~count:300
    (sync_history_arb ~procs:3 ~segments:2 ~max_ops:4)
    (fun progs -> hb_online_matches (history_of_programs ~procs:3 progs))

(* ------------------------------------------------------------------ *)
(* Engine window                                                       *)
(* ------------------------------------------------------------------ *)

let test_engine_retires () =
  (* a long lock-ping-pong run recorded in real-time order (sections of
     the two processes alternate): the in-flight window must stay far
     below the history length *)
  let sections = 200 in
  let r = Recorder.create ~procs:2 () in
  for k = 0 to sections - 1 do
    let proc = k mod 2 in
    ignore
      (Recorder.record r ~proc
         ~sync_seq:(Recorder.grant_seq r "m")
         (Op.Write_lock "m"));
    ignore
      (Recorder.record r ~proc
         (Op.Write { loc = Printf.sprintf "x%d" proc; value = k + 1 }));
    ignore
      (Recorder.record r ~proc
         ~sync_seq:(Recorder.grant_seq r "m")
         (Op.Write_unlock "m"))
  done;
  let h = Recorder.history r in
  let chk = Online.check h in
  let stats = Online.stats chk in
  check_int "all ops checked" (History.length h) stats.Online.ops_checked;
  check "window is bounded" true
    (stats.Online.max_resident < History.length h / 4)

let test_online_rejects_unregistered_group () =
  let h = Dsl.make ~procs:3 [ [ Dsl.rg [ 0; 1 ] "x" 0 ]; []; [] ] in
  let chk = Online.create ~procs:3 () in
  Alcotest.check_raises "unregistered group"
    (Invalid_argument "Online: unregistered reader group (pass it via ~groups)")
    (fun () -> Stream.replay (Online.engine chk) h)

let test_groups_of_history () =
  let h =
    Dsl.make ~procs:3
      [ [ Dsl.rg [ 0; 1 ] "x" 0; Dsl.rg [ 1; 0 ] "x" 0 ]; [ Dsl.rp "x" 0 ]; [] ]
  in
  check "harvested" true (Online.groups_of_history h = [ [ 0; 1 ] ])

(* ------------------------------------------------------------------ *)
(* Runtime integration: online checking during execution               *)
(* ------------------------------------------------------------------ *)

module Engine = Mc_sim.Engine
module Runtime = Mc_dsm.Runtime
module Config = Mc_dsm.Config
module Api = Mc_dsm.Api

let run_checked ?(procs = 3) ?(groups = []) f =
  let engine = Engine.create () in
  let cfg =
    { (Config.default ~procs) with record = true; check_online = true; groups }
  in
  let rt = Runtime.create engine cfg in
  f rt (Api.spawn rt);
  ignore (Runtime.run rt);
  let chk = Option.get (Runtime.online_checker rt) in
  (Runtime.history rt, chk)

(* the online verdicts produced during the run must equal the offline
   verdicts on the history recorded alongside *)
let runtime_differential h chk =
  let offline = Lattice.failures h Lattice.Mixed in
  let online = Online.failures chk in
  let stats = Online.stats chk in
  stats.Online.ops_checked = History.length h && offline = online

(* a small interpreted workload language for random runtime programs *)
type rt_step =
  | Rt_write of int
  | Rt_read of int * int (* loc, label selector *)
  | Rt_wsection of int * int list (* lock, write locs *)
  | Rt_rsection of int * (int * int) list (* lock, reads *)

let rt_step_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun l -> Rt_write l) (int_bound 2));
        (4, map2 (fun l lab -> Rt_read (l, lab)) (int_bound 2) (int_bound 2));
        (1, map2 (fun l ws -> Rt_wsection (l, ws)) (int_bound 1)
             (list_size (int_bound 2) (int_bound 2)));
        (1, map2 (fun l rs -> Rt_rsection (l, rs)) (int_bound 1)
             (list_size (int_bound 2) (tup2 (int_bound 2) (int_bound 2))));
      ])

let rt_programs_gen ~procs ~segments =
  QCheck.Gen.(
    list_size (return procs)
      (list_size (return segments) (list_size (int_bound 4) rt_step_gen)))

let rt_workload_arb ~procs ~segments =
  QCheck.make
    ~print:(fun progs ->
      String.concat "|"
        (List.map (fun p -> string_of_int (List.length (List.concat p))) progs))
    (rt_programs_gen ~procs ~segments)

let run_random_workload ~procs progs =
  let groups = [ [ 0; 1 ] ] in
  let label_of proc sel =
    match sel with
    | 0 -> Op.PRAM
    | 1 -> Op.Causal
    | _ -> if proc <= 1 then Op.Group [ 0; 1 ] else Op.Causal
  in
  let loc l = "v" ^ string_of_int l in
  let lock l = "m" ^ string_of_int l in
  run_checked ~procs ~groups (fun rt spawn ->
      ignore spawn;
      List.iteri
        (fun i prog ->
          Runtime.spawn_process rt i (fun p ->
              List.iter
                (fun seg ->
                  List.iter
                    (fun step ->
                      match step with
                      | Rt_write l ->
                        Runtime.write p (loc l) ((100 * i) + l)
                      | Rt_read (l, sel) ->
                        ignore (Runtime.read p ~label:(label_of i sel) (loc l))
                      | Rt_wsection (m, ws) ->
                        Runtime.write_lock p (lock m);
                        List.iter
                          (fun l -> Runtime.write p (loc l) ((100 * i) + l))
                          ws;
                        Runtime.write_unlock p (lock m)
                      | Rt_rsection (m, rs) ->
                        Runtime.read_lock p (lock m);
                        List.iter
                          (fun (l, sel) ->
                            ignore
                              (Runtime.read p ~label:(label_of i sel) (loc l)))
                          rs;
                        Runtime.read_unlock p (lock m))
                    seg;
                  Runtime.barrier p)
                prog))
        progs)

let online_diff_runtime =
  QCheck.Test.make ~name:"online = offline on random runtime workloads"
    ~count:60
    (rt_workload_arb ~procs:3 ~segments:2)
    (fun progs ->
      let h, chk = run_random_workload ~procs:3 progs in
      runtime_differential h chk)

(* ------------------------------------------------------------------ *)
(* Section-5 applications under online checking                        *)
(* ------------------------------------------------------------------ *)

module Solver = Mc_apps.Linear_solver
module Em = Mc_apps.Em_field
module Sparse = Mc_apps.Sparse_spd
module Cholesky = Mc_apps.Cholesky

let app_differential ?(procs = 3) ?(groups = []) name f =
  let h, chk = run_checked ~procs ~groups (fun rt spawn -> ignore (f rt spawn)) in
  check (name ^ ": online = offline") true (runtime_differential h chk)

let solver_problem = Solver.Problem.generate ~seed:42 ~n:8

let test_app_solver_barrier () =
  app_differential ~procs:4 "solver barrier" (fun _ spawn ->
      Solver.launch ~spawn ~procs:4 ~variant:Solver.Barrier_pram solver_problem)

let test_app_solver_handshake () =
  app_differential "solver handshake" (fun _ spawn ->
      Solver.launch ~spawn ~procs:3 ~variant:Solver.Handshake_causal
        solver_problem)

let test_app_solver_group () =
  app_differential ~groups:(Solver.solver_groups ~procs:3) "solver group"
    (fun _ spawn ->
      Solver.launch ~spawn ~procs:3 ~variant:Solver.Handshake_group
        solver_problem)

let test_app_em_field () =
  let params = { Em.rows = 9; cols = 5; steps = 4; seed = 5 } in
  app_differential "em field" (fun _ spawn ->
      Em.launch ~spawn ~procs:3 params)

let test_app_cholesky_locks () =
  let m = Sparse.generate ~seed:11 ~n:10 ~density:0.3 in
  app_differential "cholesky locks" (fun _ spawn ->
      Cholesky.launch ~spawn ~procs:3 ~variant:Cholesky.Lock_based m)

let test_app_cholesky_counters () =
  let m = Sparse.generate ~seed:11 ~n:10 ~density:0.3 in
  app_differential "cholesky counters" (fun _ spawn ->
      Cholesky.launch ~spawn ~procs:3 ~variant:Cholesky.Counter_based m)

let test_app_pipeline () =
  let params = { Mc_apps.Pipeline.items = 15; slots = 3; work = 2.0 } in
  app_differential "pipeline awaits" (fun _ spawn ->
      Mc_apps.Pipeline.launch ~spawn ~procs:3 ~impl:Mc_apps.Pipeline.Await_based
        params)

let test_stability_reclaims () =
  (* a barrier-phased run long enough for sweeps to retire state: the
     checker must end with far fewer live summaries than writes *)
  let rounds = 40 in
  let _, chk =
    run_checked ~procs:3 (fun rt _ ->
        for i = 0 to 2 do
          Runtime.spawn_process rt i (fun p ->
              for r = 1 to rounds do
                Runtime.write p (Printf.sprintf "x%d" i) r;
                Runtime.barrier p;
                ignore (Runtime.read p ~label:Op.Causal "x0");
                Runtime.barrier p
              done)
        done)
  in
  let stats = Online.stats chk in
  check "summaries reclaimed" true
    (stats.Online.live_summaries < rounds * 3 / 2);
  check "window bounded" true
    (stats.Online.max_resident < stats.Online.ops_checked / 4)

(* ------------------------------------------------------------------ *)
(* Recorder edge cases                                                 *)
(* ------------------------------------------------------------------ *)

let test_recorder_overlapping_tokens () =
  (* two fibers of one process overlap: program order must be partial *)
  let r = Recorder.create ~procs:1 () in
  let t1 = Recorder.start r ~proc:0 in
  let t2 = Recorder.start r ~proc:0 in
  ignore (Recorder.finish r t1 (Op.Write { loc = "x"; value = 1 }));
  let t3 = Recorder.start r ~proc:0 in
  ignore (Recorder.finish r t2 (Op.Write { loc = "y"; value = 2 }));
  ignore (Recorder.finish r t3 (Op.Write { loc = "z"; value = 3 }));
  let h = Recorder.history r in
  let po = History.program_order h in
  check "overlapped ops unordered" false
    (Mc_util.Relation.mem po 0 1 || Mc_util.Relation.mem po 1 0);
  (* op 2 started after op 0 finished *)
  check "sequential ops ordered" true (Mc_util.Relation.mem po 0 2)

let test_recorder_out_of_range_proc () =
  let r = Recorder.create ~procs:2 () in
  check "in range ok" true (Recorder.record r ~proc:1 (Op.Barrier 0) >= 0);
  (match Recorder.record r ~proc:2 (Op.Barrier 0) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range proc accepted");
  match Recorder.start r ~proc:(-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative proc accepted"

let test_recorder_grant_numbering () =
  let r = Recorder.create ~procs:2 () in
  check_int "starts at zero" 0 (Recorder.grant_seq r "a");
  check_int "increments" 1 (Recorder.grant_seq r "a");
  check_int "per lock" 0 (Recorder.grant_seq r "b");
  check_int "independent" 2 (Recorder.grant_seq r "a")

let test_streaming_only_recorder () =
  let r = Recorder.create ~materialize:false ~procs:2 () in
  let seen = ref 0 in
  Recorder.subscribe r (Mc_history.Sink.make (fun _ -> incr seen));
  ignore (Recorder.record r ~proc:0 (Op.Write { loc = "x"; value = 1 }));
  ignore (Recorder.record r ~proc:1 (Op.Read { loc = "x"; label = Op.PRAM; value = 1 }));
  check_int "sink saw both" 2 !seen;
  match Recorder.history r with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "history of a streaming-only recorder"

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "online"
    [
      ( "differential",
        [
          qt online_diff_memory_only;
          qt online_diff_sync;
          qt online_diff_more_procs;
          qt hb_online_diff;
        ] );
      ( "engine",
        [
          Alcotest.test_case "window bounded" `Quick test_engine_retires;
          Alcotest.test_case "unregistered group" `Quick
            test_online_rejects_unregistered_group;
          Alcotest.test_case "group harvest" `Quick test_groups_of_history;
        ] );
      ("runtime", [ qt online_diff_runtime ]);
      ( "apps",
        [
          Alcotest.test_case "solver barrier" `Quick test_app_solver_barrier;
          Alcotest.test_case "solver handshake" `Quick test_app_solver_handshake;
          Alcotest.test_case "solver group" `Quick test_app_solver_group;
          Alcotest.test_case "em field" `Quick test_app_em_field;
          Alcotest.test_case "cholesky locks" `Quick test_app_cholesky_locks;
          Alcotest.test_case "cholesky counters" `Quick
            test_app_cholesky_counters;
          Alcotest.test_case "pipeline awaits" `Quick test_app_pipeline;
          Alcotest.test_case "stability reclaims" `Quick test_stability_reclaims;
        ] );
      ( "recorder",
        [
          Alcotest.test_case "overlapping tokens" `Quick
            test_recorder_overlapping_tokens;
          Alcotest.test_case "out of range" `Quick test_recorder_out_of_range_proc;
          Alcotest.test_case "grant numbering" `Quick test_recorder_grant_numbering;
          Alcotest.test_case "streaming only" `Quick test_streaming_only_recorder;
        ] );
    ]
