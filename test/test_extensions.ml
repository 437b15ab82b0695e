(* Tests for the paper-sketched generalizations: group consistency
   (Section 3.2), subset barriers (Section 3.1.2), the asynchronous
   relaxation solver (Section 7), and the trace-rendering tools. *)

module Engine = Mc_sim.Engine
module Runtime = Mc_dsm.Runtime
module Config = Mc_dsm.Config
module Api = Mc_dsm.Api
module Network = Mc_net.Network
module Op = Mc_history.Op
module History = Mc_history.History
module Dsl = Mc_history.Dsl
module Lattice = Mc_consistency.Lattice
module Read_rule = Mc_consistency.Read_rule

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Group consistency: the checker                                      *)
(* ------------------------------------------------------------------ *)

(* the classic PRAM-not-causal chain: p0 writes x, p1 relays through y,
   p2 reads y fresh but x stale *)
let chain_with last_read =
  Dsl.make ~procs:3
    [
      [ Dsl.w "x" 1 ];
      [ Dsl.rp "x" 1; Dsl.w "y" 2 ];
      [ Dsl.rp "y" 2; last_read ];
    ]

let test_group_endpoints () =
  (* the stale read of x by p2 (op id 4) *)
  let h = chain_with (Dsl.rp "x" 0) in
  check "valid as PRAM" true (Lattice.verdict_at h Op.PRAM ~read_id:4 = Read_rule.Valid);
  check "invalid as causal" false
    (Lattice.verdict_at h Op.Causal ~read_id:4 = Read_rule.Valid);
  (* singleton group = PRAM *)
  check "group {2} behaves like PRAM" true
    (Lattice.verdict_at h (Op.Group [ 2 ]) ~read_id:4 = Read_rule.Valid);
  (* full group = causal *)
  check "group {0,1,2} behaves like causal" false
    (Lattice.verdict_at h (Op.Group [ 0; 1; 2 ]) ~read_id:4 = Read_rule.Valid);
  (* the interesting middle point: grouping the reader with the relay
     process p1 pulls in p1's reads-from edge on x, exposing the
     staleness even without p0 in the group *)
  check "group {1,2} sees through the relay" false
    (Lattice.verdict_at h (Op.Group [ 1; 2 ]) ~read_id:4 = Read_rule.Valid);
  (* grouping with the original writer also catches it: the reads-from
     edge out of p0's write touches the member p0, and program order of
     the relay completes the chain *)
  check "group {0,2} also sees the chain" false
    (Lattice.verdict_at h (Op.Group [ 0; 2 ]) ~read_id:4 = Read_rule.Valid)

(* build the history with explicit Group labels through a recorder *)
let test_group_label_checked_by_mixed () =
  let r = Mc_history.Recorder.create ~procs:3 () in
  let w kind p = ignore (Mc_history.Recorder.record r ~proc:p kind) in
  w (Op.Write { loc = "x"; value = 1 }) 0;
  w (Op.Read { loc = "x"; label = Op.PRAM; value = 1 }) 1;
  w (Op.Write { loc = "y"; value = 2 }) 1;
  w (Op.Read { loc = "y"; label = Op.PRAM; value = 2 }) 2;
  w (Op.Read { loc = "x"; label = Op.Group [ 2 ]; value = 0 }) 2;
  let h = Mc_history.Recorder.history r in
  check "mixed accepts the {2}-group stale read" true
    (Lattice.is_consistent h Lattice.Mixed);
  let r2 = Mc_history.Recorder.create ~procs:3 () in
  let w2 kind p = ignore (Mc_history.Recorder.record r2 ~proc:p kind) in
  w2 (Op.Write { loc = "x"; value = 1 }) 0;
  w2 (Op.Read { loc = "x"; label = Op.PRAM; value = 1 }) 1;
  w2 (Op.Write { loc = "y"; value = 2 }) 1;
  w2 (Op.Read { loc = "y"; label = Op.PRAM; value = 2 }) 2;
  w2 (Op.Read { loc = "x"; label = Op.Group [ 1; 2 ]; value = 0 }) 2;
  let h2 = Mc_history.Recorder.history r2 in
  check "mixed rejects the {1,2}-group stale read" false
    (Lattice.is_consistent h2 Lattice.Mixed)

let test_group_relation_validations () =
  let h = chain_with (Dsl.rp "x" 0) in
  Alcotest.check_raises "reader must be a member"
    (Invalid_argument "Oracle.group_relation: reader must be a group member")
    (fun () -> ignore (Oracle.group_relation h ~reader:2 ~group:[ 0; 1 ]));
  Alcotest.check_raises "Lattice: reader must be a member"
    (Invalid_argument "Lattice.relation: reader must be a group member")
    (fun () ->
      ignore
        (Lattice.relation h (Lattice.axioms_of_label (Op.Group [ 0; 1 ])) ~reader:2))

(* ------------------------------------------------------------------ *)
(* Group consistency: the runtime                                      *)
(* ------------------------------------------------------------------ *)

let test_group_views_in_runtime () =
  (* relay scenario with a paused direct link: p2 group-reads with the
     relay group {1,2} and must see p0's write once p1's relay applies,
     because the group view gates member updates on received non-member
     dependencies *)
  let engine = Engine.create () in
  let cfg = { (Config.default ~procs:3) with groups = [ [ 1; 2 ]; [ 2 ] ] } in
  let rt = Runtime.create engine cfg in
  let net = Runtime.network rt in
  Network.pause_link net ~src:0 ~dst:2;
  let relay_seen = ref (-1) and singleton_seen = ref (-1) and x_after = ref (-1) in
  Runtime.spawn_process rt 0 (fun p -> Runtime.write p "x" 7);
  Runtime.spawn_process rt 1 (fun p ->
      Runtime.await p "x" 7;
      Runtime.write p "y" 9);
  Runtime.spawn_process rt 2 (fun p ->
      Runtime.compute p 1000.;
      (* y from p1 has arrived; x from p0 is still paused. The raw PRAM
         view applies y on receipt; the group views gate it on the
         received dependency from p0 (the singleton group is conservative
         here - Definition 3 would allow the fresh y) *)
      singleton_seen := Runtime.read p ~label:Op.PRAM "y";
      relay_seen := Runtime.read p ~label:(Op.Group [ 1; 2 ]) "y";
      ignore (Runtime.read p ~label:(Op.Group [ 2 ]) "y");
      Runtime.compute p 2000.;
      x_after := Runtime.read p ~label:(Op.Group [ 1; 2 ]) "x");
  Engine.schedule engine ~delay:1500. (fun () -> Network.resume_link net ~src:0 ~dst:2);
  ignore (Runtime.run rt);
  check_int "the PRAM view applied y on receipt" 9 !singleton_seen;
  check_int "relay group view held y back until x was received" 0 !relay_seen;
  check_int "after the link resumes the group view has x" 7 !x_after

let test_group_read_requires_membership () =
  let engine = Engine.create () in
  let cfg = { (Config.default ~procs:2) with groups = [ [ 0 ] ] } in
  let rt = Runtime.create engine cfg in
  Runtime.spawn_process rt 1 (fun p ->
      ignore (Runtime.read p ~label:(Op.Group [ 0 ]) "x"));
  match Runtime.run rt with
  | (_ : float) -> Alcotest.fail "expected membership failure"
  | exception Engine.Fiber_failure (Invalid_argument _, _) -> ()

let test_group_runtime_history_checks () =
  (* executions using group reads are still mixed consistent *)
  let engine = Engine.create () in
  let cfg =
    { (Config.default ~procs:3) with record = true; groups = [ [ 0; 1 ] ] }
  in
  let rt = Runtime.create engine cfg in
  Runtime.spawn_process rt 0 (fun p ->
      Runtime.write p "a" 1;
      Runtime.barrier p;
      ignore (Runtime.read p ~label:(Op.Group [ 0; 1 ]) "b"));
  Runtime.spawn_process rt 1 (fun p ->
      Runtime.write p "b" 2;
      Runtime.barrier p;
      ignore (Runtime.read p ~label:(Op.Group [ 0; 1 ]) "a"));
  Runtime.spawn_process rt 2 (fun p -> Runtime.barrier p);
  ignore (Runtime.run rt);
  let h = Runtime.history rt in
  check "well-formed" true (History.is_well_formed h);
  check "mixed consistent with group labels" true (Lattice.is_consistent h Lattice.Mixed)

(* ------------------------------------------------------------------ *)
(* Subset barriers                                                     *)
(* ------------------------------------------------------------------ *)

let test_subset_barrier_runtime () =
  let engine = Engine.create () in
  let cfg = { (Config.default ~procs:3) with record = true } in
  let rt = Runtime.create engine cfg in
  let seen = ref (-1) and outsider_done = ref 0. in
  Runtime.spawn_process rt 0 (fun p ->
      Runtime.write p "x" 5;
      Runtime.barrier_subset p [ 0; 1 ]);
  Runtime.spawn_process rt 1 (fun p ->
      Runtime.barrier_subset p [ 0; 1 ];
      seen := Runtime.read p ~label:Op.PRAM "x");
  Runtime.spawn_process rt 2 (fun p ->
      (* the outsider never joins and must not block *)
      Runtime.compute p 1.;
      outsider_done := Engine.now engine);
  ignore (Runtime.run rt);
  check_int "pre-barrier write visible to the member" 5 !seen;
  check "outsider unaffected" true (!outsider_done < 5.);
  let h = Runtime.history rt in
  check "well-formed" true (History.is_well_formed h);
  check "mixed consistent" true (Lattice.is_consistent h Lattice.Mixed)

let test_subset_barrier_order_in_model () =
  (* model-level: the subset barrier orders only members *)
  let h =
    Dsl.make ~procs:3
      [
        [ Dsl.w "x" 1; Dsl.barg 0 [ 0; 1 ] ];
        [ Dsl.barg 0 [ 0; 1 ]; Dsl.rp "x" 1 ];
        [ Dsl.rp "x" 0 ];
      ]
  in
  check "member's post-barrier read must be fresh" true
    (Lattice.verdict_at h Op.PRAM ~read_id:3 = Read_rule.Valid);
  check "outsider's stale read is fine" true
    (Lattice.verdict_at h Op.PRAM ~read_id:4 = Read_rule.Valid);
  let bo = Oracle.barrier_order h in
  (* ids: p0: w=0 bar=1; p1: bar=2 r=3; p2: r=4 *)
  check "w ordered before member barrier" true (Mc_util.Relation.mem bo 0 2);
  check "no ordering towards the outsider" false
    (Mc_util.Relation.mem bo 0 4 || Mc_util.Relation.mem bo 2 4)

let test_subset_barrier_separate_episodes () =
  (* two disjoint pairs can run barriers independently *)
  let engine = Engine.create () in
  let rt = Runtime.create engine (Config.default ~procs:4) in
  let rounds = Array.make 4 0 in
  List.iter
    (fun (a, b) ->
      List.iter
        (fun i ->
          Runtime.spawn_process rt i (fun p ->
              for _ = 1 to 3 do
                Runtime.barrier_subset p [ a; b ];
                rounds.(i) <- rounds.(i) + 1
              done))
        [ a; b ])
    [ (0, 1); (2, 3) ];
  ignore (Runtime.run rt);
  Alcotest.(check (array int)) "all pairs completed" [| 3; 3; 3; 3 |] rounds

let test_subset_barrier_membership_enforced () =
  let engine = Engine.create () in
  let rt = Runtime.create engine (Config.default ~procs:2) in
  Runtime.spawn_process rt 0 (fun p -> Runtime.barrier_subset p [ 1 ]);
  match Runtime.run rt with
  | (_ : float) -> Alcotest.fail "expected membership failure"
  | exception Engine.Fiber_failure (Invalid_argument _, _) -> ()

(* a member that is not a process is rejected at the call, naming it,
   instead of leaving the real members blocked forever *)
let test_subset_barrier_member_out_of_range () =
  let engine = Engine.create () in
  let rt = Runtime.create engine (Config.default ~procs:3) in
  List.iter
    (fun i -> Runtime.spawn_process rt i (fun p -> Runtime.barrier_subset p [ 0; 1; 7 ]))
    [ 0; 1 ];
  match Runtime.run rt with
  | (_ : float) -> Alcotest.fail "expected an out-of-range member to be rejected"
  | exception Engine.Fiber_failure (Invalid_argument msg, _) ->
    Alcotest.(check string) "names the member"
      "Runtime.barrier_subset: member 7 is not a process (0..2)" msg

(* ------------------------------------------------------------------ *)
(* Async relaxation                                                    *)
(* ------------------------------------------------------------------ *)

let test_async_converges_with_pram () =
  let p = Mc_apps.Linear_solver.Problem.generate ~seed:42 ~n:10 in
  let engine = Engine.create () in
  let rt = Runtime.create engine (Config.default ~procs:4) in
  let res = Mc_apps.Async_solver.launch ~spawn:(Api.spawn rt) ~procs:4 p in
  ignore (Runtime.run rt);
  let r = Option.get !res in
  let tol = Mc_apps.Fixed.scale / 100 in
  check "converged" true r.Mc_apps.Async_solver.converged;
  check "small residual" true (r.Mc_apps.Async_solver.residual <= tol);
  let truth = Mc_apps.Async_solver.solution p in
  let maxdiff =
    Array.fold_left max 0
      (Array.mapi (fun i v -> abs (v - truth.(i))) r.Mc_apps.Async_solver.x)
  in
  check "close to the true solution" true (maxdiff <= tol)

let test_async_under_adverse_latency () =
  (* convergence survives very uneven link latencies *)
  let p = Mc_apps.Linear_solver.Problem.generate ~seed:7 ~n:8 in
  let nodes = 3 in
  let lat = Array.make_matrix nodes nodes 500. in
  for i = 0 to nodes - 1 do
    lat.(i).(i) <- 0.;
    lat.(i).(0) <- 10.;
    lat.(0).(i) <- 10.
  done;
  let engine = Engine.create () in
  let rt =
    Runtime.create engine
      ~latency:(Mc_net.Latency.matrix lat)
      (Config.default ~procs:nodes)
  in
  let res = Mc_apps.Async_solver.launch ~spawn:(Api.spawn rt) ~procs:nodes p in
  ignore (Runtime.run rt);
  let r = Option.get !res in
  check "converged despite stale reads" true r.Mc_apps.Async_solver.converged;
  check "residual bounded" true
    (r.Mc_apps.Async_solver.residual <= Mc_apps.Fixed.scale / 100)

(* ------------------------------------------------------------------ *)
(* Multi-threaded processes (Section 3)                                *)
(* ------------------------------------------------------------------ *)

let test_threads_share_replica () =
  let engine = Engine.create () in
  let cfg = { (Config.default ~procs:2) with record = true } in
  let rt = Runtime.create engine cfg in
  let seen = ref (-1) in
  Runtime.spawn_process rt 0 (fun p -> Runtime.write p "t:a" 1);
  Runtime.spawn_thread rt 0 (fun p ->
      (* a second fiber of process 0: its own writes and reads share the
         replica; intra-process reads see thread writes immediately once
         applied *)
      Runtime.write p "t:b" 2;
      Runtime.compute p 5.;
      seen := Runtime.read p "t:a");
  Runtime.spawn_process rt 1 (fun p ->
      Runtime.await p "t:a" 1;
      Runtime.await p "t:b" 2);
  ignore (Runtime.run rt);
  check_int "thread sees sibling's write" 1 !seen;
  let h = Runtime.history rt in
  check "well-formed with overlapping threads" true (History.is_well_formed h);
  check "mixed consistent" true (Lattice.is_consistent h Lattice.Mixed)

let test_threads_partial_program_order () =
  let engine = Engine.create () in
  let cfg = { (Config.default ~procs:1) with record = true } in
  let rt = Runtime.create engine cfg in
  (* two fibers each take a different lock; their lock acquisitions
     overlap in time, so the recorded program order is partial *)
  Runtime.spawn_process rt 0 (fun p ->
      Runtime.write_lock p "la";
      Runtime.compute p 100.;
      Runtime.write_unlock p "la");
  Runtime.spawn_thread rt 0 (fun p ->
      Runtime.write_lock p "lb";
      Runtime.compute p 100.;
      Runtime.write_unlock p "lb");
  ignore (Runtime.run rt);
  let h = Runtime.history rt in
  check "well-formed" true (History.is_well_formed h);
  let po = Mc_history.History.program_order h in
  (* find the two lock-acquisition ops and check neither precedes the other *)
  let locks =
    Array.to_list (History.ops h)
    |> List.filter_map (fun (o : Op.t) ->
           match o.kind with Op.Write_lock _ -> Some o.id | _ -> None)
  in
  match locks with
  | [ a; b ] ->
    check "overlapping acquisitions unordered" false
      (Mc_util.Relation.mem po a b || Mc_util.Relation.mem po b a)
  | _ -> Alcotest.fail "expected two lock operations"

let test_threads_contend_on_one_lock () =
  let engine = Engine.create () in
  let rt = Runtime.create engine (Config.default ~procs:2) in
  let active = ref 0 and max_active = ref 0 and entries = ref 0 in
  let body p =
    Runtime.write_lock p "shared";
    incr active;
    incr entries;
    max_active := max !max_active !active;
    Runtime.compute p 50.;
    decr active;
    Runtime.write_unlock p "shared"
  in
  Runtime.spawn_process rt 0 body;
  Runtime.spawn_thread rt 0 body;
  Runtime.spawn_process rt 1 body;
  ignore (Runtime.run rt);
  check_int "all three entered" 3 !entries;
  check_int "mutual exclusion across threads too" 1 !max_active

(* ------------------------------------------------------------------ *)
(* Fault injection: extreme reordering via link pauses                 *)
(* ------------------------------------------------------------------ *)

let test_mixed_consistency_under_link_pauses () =
  (* run random programs while randomly pausing and resuming links: the
     recorded histories must stay well-formed and mixed consistent *)
  for seed = 1 to 10 do
    let rng = Mc_util.Rng.make (7000 + seed) in
    let procs = 3 in
    let engine = Engine.create () in
    let cfg = { (Config.default ~procs) with record = true } in
    let rt = Runtime.create engine cfg in
    let net = Runtime.network rt in
    let next_value = ref 0 in
    for i = 0 to procs - 1 do
      let plan =
        List.init 10 (fun _ ->
            let loc = Mc_util.Rng.pick rng [| "fa"; "fb" |] in
            if Mc_util.Rng.bool rng then begin
              incr next_value;
              `W (loc, !next_value)
            end
            else `R (loc, Mc_util.Rng.bool rng))
      in
      Runtime.spawn_process rt i (fun p ->
          List.iter
            (function
              | `W (loc, v) -> Runtime.write p loc v
              | `R (loc, causal) ->
                ignore
                  (Runtime.read p
                     ~label:(if causal then Op.Causal else Op.PRAM)
                     loc))
            plan)
    done;
    (* random pause/resume schedule on random links *)
    for _ = 1 to 4 do
      let src = Mc_util.Rng.int rng procs and dst = Mc_util.Rng.int rng procs in
      if src <> dst then begin
        let t_pause = Mc_util.Rng.float rng 5. in
        let t_resume = t_pause +. Mc_util.Rng.float rng 500. in
        Engine.schedule engine ~delay:t_pause (fun () ->
            Network.pause_link net ~src ~dst);
        Engine.schedule engine ~delay:t_resume (fun () ->
            Network.resume_link net ~src ~dst)
      end
    done;
    ignore (Runtime.run rt);
    let h = Runtime.history rt in
    check (Printf.sprintf "well-formed under faults (seed %d)" seed) true
      (History.is_well_formed h);
    check
      (Printf.sprintf "mixed consistent under faults (seed %d)" seed)
      true
      (Lattice.is_consistent h Lattice.Mixed)
  done

(* ------------------------------------------------------------------ *)
(* Entry consistency (Section 2, Midway)                               *)
(* ------------------------------------------------------------------ *)

let test_entry_mode_transfers_values () =
  let engine = Engine.create () in
  let cfg =
    { (Config.default ~procs:3) with propagation = Config.Entry; record = true }
  in
  let rt = Runtime.create engine cfg in
  let net = Runtime.network rt in
  let seen = ref (-1) in
  Runtime.spawn_process rt 0 (fun p ->
      Runtime.write_lock p "g";
      Runtime.write p "guarded" 42;
      Runtime.write_unlock p "g");
  Runtime.spawn_process rt 1 (fun p ->
      Runtime.compute p 500.;
      Runtime.write_lock p "g";
      seen := Runtime.read p "guarded";
      Runtime.write_unlock p "g");
  Runtime.spawn_process rt 2 (fun _ -> ());
  ignore (Runtime.run rt);
  check_int "value arrives with the grant" 42 !seen;
  (* no update broadcasts at all: only lock control traffic *)
  let kinds = Network.messages_by_kind net in
  check_int "no update broadcasts" 0
    (Option.value ~default:0 (List.assoc_opt "update" kinds));
  let h = Runtime.history rt in
  check "well-formed" true (History.is_well_formed h);
  check "mixed consistent" true (Lattice.is_consistent h Lattice.Mixed);
  check "entry-consistent program (Cor. 1)" true
    (Mc_consistency.Program_class.is_entry_consistent h)

let test_entry_mode_accumulates_across_holders () =
  (* the second holder sees the first holder's value even though it was
     never broadcast; a third holder sees the second's overwrite *)
  let engine = Engine.create () in
  let cfg = { (Config.default ~procs:3) with propagation = Config.Entry } in
  let rt = Runtime.create engine cfg in
  let observed = Array.make 3 (-1) in
  for i = 0 to 2 do
    Runtime.spawn_process rt i (fun p ->
        Runtime.compute p (float_of_int i *. 400.);
        Runtime.write_lock p "g";
        observed.(i) <- Runtime.read p "acc";
        Runtime.write p "acc" (observed.(i) + 10);
        Runtime.write_unlock p "g")
  done;
  ignore (Runtime.run rt);
  Alcotest.(check (array int)) "chain of critical sections" [| 0; 10; 20 |] observed

let test_entry_mode_counters () =
  (* decrements inside entry critical sections are serialized by the lock
     and travel with it *)
  let engine = Engine.create () in
  let cfg = { (Config.default ~procs:2) with propagation = Config.Entry } in
  let rt = Runtime.create engine cfg in
  let final = ref (-1) in
  for i = 0 to 1 do
    Runtime.spawn_process rt i (fun p ->
        Runtime.compute p (float_of_int i *. 300.);
        Runtime.write_lock p "g";
        if i = 0 then Runtime.init_counter p "c" 10
        else begin
          Runtime.decrement p "c" ~amount:3;
          final := Runtime.read p "c"
        end;
        Runtime.write_unlock p "g")
  done;
  ignore (Runtime.run rt);
  check_int "decrement under entry lock" 7 !final

(* ------------------------------------------------------------------ *)
(* Subscriber routing as a placement (Section 6, Maya optimization)    *)
(* ------------------------------------------------------------------ *)

let em_params = { Mc_apps.Em_field.rows = 12; cols = 6; steps = 5; seed = 5 }

let run_em ~procs ~routed =
  let engine = Engine.create () in
  let cfg =
    {
      (Config.default ~procs) with
      timestamped_updates = false;
      placement = (if routed then Some (Mc_apps.Em_field.placement ~procs) else None);
    }
  in
  let rt = Runtime.create engine cfg in
  let res = Mc_apps.Em_field.launch ~spawn:(Api.spawn rt) ~procs em_params in
  ignore (Runtime.run rt);
  (Option.get !res, Network.messages_sent (Runtime.network rt))

let test_multicast_exact_and_leaner () =
  let procs = 4 in
  let expected = Mc_apps.Em_field.reference ~procs em_params in
  let r_b, msgs_b = run_em ~procs ~routed:false in
  let r_m, msgs_m = run_em ~procs ~routed:true in
  check_int "broadcast exact" expected.Mc_apps.Em_field.checksum
    r_b.Mc_apps.Em_field.checksum;
  check_int "multicast exact" expected.Mc_apps.Em_field.checksum
    r_m.Mc_apps.Em_field.checksum;
  check "multicast sends fewer messages" true (msgs_m < msgs_b)

let test_multicast_count_barrier_gating () =
  (* a subscriber must not pass the barrier before the counted updates
     arrive, even on a slow link *)
  let procs = 2 in
  let lat = [| [| 0.; 500. |]; [| 10.; 0. |] |] in
  let pl = Mc_placement.Placement.(create ~shards:1 ~policy:Hash ()) in
  Mc_placement.Placement.subscribe pl ~node:0 ~shard:0;
  Mc_placement.Placement.subscribe pl ~node:1 ~shard:0;
  let engine = Engine.create () in
  let cfg =
    { (Config.default ~procs) with timestamped_updates = false; placement = Some pl }
  in
  let rt = Runtime.create engine ~latency:(Mc_net.Latency.matrix lat) cfg in
  let seen = ref (-1) in
  Runtime.spawn_process rt 0 (fun p ->
      Runtime.write p "mx" 77;
      Runtime.barrier p);
  Runtime.spawn_process rt 1 (fun p ->
      Runtime.barrier p;
      seen := Runtime.read p ~label:Op.PRAM "mx");
  ignore (Runtime.run rt);
  check_int "post-barrier read is fresh despite the slow link" 77 !seen

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let sample_history () =
  Dsl.make ~procs:2
    [
      [ Dsl.w "x" 1; Dsl.wl ~seq:0 "m"; Dsl.wu ~seq:1 "m"; Dsl.bar 0 ];
      [ Dsl.rc "x" 1; Dsl.bar 0 ];
    ]

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec scan i = i + nn <= nh && (String.sub hay i nn = needle || scan (i + 1)) in
  scan 0

let index_of hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec scan i =
    if i + nn > nh then -1
    else if String.sub hay i nn = needle then i
    else scan (i + 1)
  in
  scan 0

let test_space_time () =
  let s = Mc_history.Render.space_time (sample_history ()) in
  check "has process headers" true (contains s "p0" && contains s "p1");
  check "shows operations" true (contains s "w(x)1" && contains s "rc(x)1");
  (* causality respected vertically: the write row precedes the read row *)
  check "write before read" true (index_of s "w(x)1" < index_of s "rc(x)1")

let test_dot_export () =
  let s = Mc_history.Render.dot (sample_history ()) in
  check "digraph wrapper" true (contains s "digraph history");
  check "clusters per process" true (contains s "cluster_p0" && contains s "cluster_p1");
  check "reads-from edge" true (contains s "rf");
  check "barrier edge" true (contains s "bar")

let test_summary () =
  let s = Mc_history.Render.summary (sample_history ()) in
  check "counts ops" true (contains s "6 operations over 2 processes");
  check "mentions locks" true (contains s "lock")

let () =
  Alcotest.run "extensions"
    [
      ( "group-consistency",
        [
          Alcotest.test_case "spectrum endpoints" `Quick test_group_endpoints;
          Alcotest.test_case "group labels in Definition 4" `Quick
            test_group_label_checked_by_mixed;
          Alcotest.test_case "validation" `Quick test_group_relation_validations;
          Alcotest.test_case "runtime group views" `Quick test_group_views_in_runtime;
          Alcotest.test_case "membership enforced" `Quick
            test_group_read_requires_membership;
          Alcotest.test_case "recorded histories check out" `Quick
            test_group_runtime_history_checks;
        ] );
      ( "subset-barriers",
        [
          Alcotest.test_case "runtime subset barrier" `Quick test_subset_barrier_runtime;
          Alcotest.test_case "model-level ordering" `Quick
            test_subset_barrier_order_in_model;
          Alcotest.test_case "independent episodes" `Quick
            test_subset_barrier_separate_episodes;
          Alcotest.test_case "membership enforced" `Quick
            test_subset_barrier_membership_enforced;
          Alcotest.test_case "out-of-range member rejected" `Quick
            test_subset_barrier_member_out_of_range;
        ] );
      ( "multi-threaded",
        [
          Alcotest.test_case "threads share the replica" `Quick
            test_threads_share_replica;
          Alcotest.test_case "partial program order" `Quick
            test_threads_partial_program_order;
          Alcotest.test_case "lock contention across threads" `Quick
            test_threads_contend_on_one_lock;
        ] );
      ( "fault-injection",
        [
          Alcotest.test_case "mixed consistency under link pauses" `Slow
            test_mixed_consistency_under_link_pauses;
        ] );
      ( "async-relaxation",
        [
          Alcotest.test_case "converges with PRAM" `Quick test_async_converges_with_pram;
          Alcotest.test_case "adverse latency" `Quick test_async_under_adverse_latency;
        ] );
      ( "entry-consistency",
        [
          Alcotest.test_case "values ride the lock" `Quick
            test_entry_mode_transfers_values;
          Alcotest.test_case "accumulates across holders" `Quick
            test_entry_mode_accumulates_across_holders;
          Alcotest.test_case "counters under entry locks" `Quick
            test_entry_mode_counters;
        ] );
      ( "multicast",
        [
          Alcotest.test_case "exact and leaner" `Quick test_multicast_exact_and_leaner;
          Alcotest.test_case "count-vector barrier gating" `Quick
            test_multicast_count_barrier_gating;
        ] );
      ( "render",
        [
          Alcotest.test_case "space-time diagram" `Quick test_space_time;
          Alcotest.test_case "dot export" `Quick test_dot_export;
          Alcotest.test_case "summary" `Quick test_summary;
        ] );
    ]
