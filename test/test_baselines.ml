(* Tests for the sequentially consistent baselines: the central server
   and the directory-based write-invalidate protocol. *)

module Engine = Mc_sim.Engine
module Central = Mc_baselines.Sc_central
module Inval = Mc_baselines.Sc_invalidate
module Op = Mc_history.Op
module Sequential = Mc_consistency.Sequential

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* run the same little program on either baseline through Api.t *)
let dekker_program spawn =
  let r0 = ref (-1) and r1 = ref (-1) in
  spawn 0 (fun (api : Mc_dsm.Api.t) ->
      api.write "x" 1;
      r0 := api.read "y");
  spawn 1 (fun (api : Mc_dsm.Api.t) ->
      api.write "y" 1;
      r1 := api.read "x");
  (r0, r1)

let test_central_basic () =
  let e = Engine.create () in
  let m = Central.create e ~record:true ~procs:2 () in
  let seen = ref (-1) in
  Central.spawn m 0 (fun api ->
      api.write "x" 42;
      api.barrier ());
  Central.spawn m 1 (fun api ->
      api.barrier ();
      seen := api.read "x");
  ignore (Central.run m);
  check_int "visible after barrier" 42 !seen;
  check_int "server memory" 42 (Central.peek m "x");
  check "round trips happened" true (Central.messages_sent m >= 6);
  let h = Central.history m in
  check "history is SC" true
    (Sequential.is_sequentially_consistent h = Sequential.Consistent)

let test_central_never_dekker_violates () =
  (* blocking round trips: at least one process must see the other's
     write, and the recorded history must be SC *)
  let e = Engine.create () in
  let m = Central.create e ~record:true ~procs:2 () in
  let r0, r1 = dekker_program (Central.spawn m) in
  ignore (Central.run m);
  check "SC forbids 0/0" false (!r0 = 0 && !r1 = 0);
  check "history checks as SC" true
    (Sequential.is_sequentially_consistent (Central.history m)
    = Sequential.Consistent)

let test_central_sync_ops () =
  let e = Engine.create () in
  let m = Central.create e ~procs:3 () in
  let active = ref 0 and max_active = ref 0 and order = ref [] in
  for i = 0 to 2 do
    Central.spawn m i (fun api ->
        api.write_lock "m";
        incr active;
        max_active := max !max_active !active;
        api.compute 20.;
        decr active;
        order := i :: !order;
        api.write_unlock "m")
  done;
  ignore (Central.run m);
  check_int "mutual exclusion" 1 !max_active;
  check_int "all entered" 3 (List.length !order)

let test_central_await_and_counters () =
  let e = Engine.create () in
  let m = Central.create e ~procs:2 () in
  let final = ref (-1) in
  Central.spawn m 0 (fun api ->
      api.init_counter "c" 2;
      api.barrier ();
      api.decrement "c" ~amount:1;
      api.await "c" 0;
      final := api.read "c");
  Central.spawn m 1 (fun api ->
      api.barrier ();
      api.decrement "c" ~amount:1);
  ignore (Central.run m);
  check_int "await fired on zero" 0 !final

let test_invalidate_basic_coherence () =
  let e = Engine.create () in
  let m = Inval.create e ~record:true ~procs:3 () in
  let seen = ref (-1) in
  Inval.spawn m 0 (fun api ->
      api.write "x" 5;
      api.barrier ());
  Inval.spawn m 1 (fun api ->
      api.barrier ();
      seen := api.read "x");
  Inval.spawn m 2 (fun api -> api.barrier ());
  ignore (Inval.run m);
  check_int "coherent read" 5 !seen;
  check_int "peek" 5 (Inval.peek m "x");
  check "history is SC" true
    (Sequential.is_sequentially_consistent (Inval.history m)
    = Sequential.Consistent)

let test_invalidate_cache_hits () =
  let e = Engine.create () in
  let m = Inval.create e ~procs:2 () in
  Inval.spawn m 0 (fun api ->
      api.write "x" 1;
      api.barrier ());
  Inval.spawn m 1 (fun api ->
      api.barrier ();
      for _ = 1 to 10 do
        ignore (api.read "x")
      done);
  ignore (Inval.run m);
  check "repeated reads mostly hit" true (Inval.cache_hits m >= 9);
  check "first read missed" true (Inval.cache_misses m >= 1)

let test_invalidate_write_invalidates_readers () =
  let e = Engine.create () in
  let m = Inval.create e ~procs:2 () in
  let v1 = ref (-1) and v2 = ref (-1) in
  Inval.spawn m 0 (fun api ->
      api.write "x" 1;
      api.barrier ();
      api.barrier ();
      (* p1 cached x; now overwrite: p1's next read must see 2 *)
      api.write "x" 2;
      api.barrier ());
  Inval.spawn m 1 (fun api ->
      api.barrier ();
      v1 := api.read "x";
      api.barrier ();
      api.barrier ();
      v2 := api.read "x");
  ignore (Inval.run m);
  check_int "first value" 1 !v1;
  check_int "invalidated, fresh value" 2 !v2

let test_invalidate_dekker () =
  let e = Engine.create () in
  let m = Inval.create e ~record:true ~procs:2 () in
  let r0, r1 = dekker_program (Inval.spawn m) in
  ignore (Inval.run m);
  check "SC forbids 0/0" false (!r0 = 0 && !r1 = 0);
  check "history checks as SC" true
    (Sequential.is_sequentially_consistent (Inval.history m)
    = Sequential.Consistent)

let test_invalidate_ownership_migration () =
  let e = Engine.create () in
  let m = Inval.create e ~procs:3 () in
  let total = ref 0 in
  (* each process increments a shared counter under a lock: ownership of
     the line migrates between writers *)
  for i = 0 to 2 do
    Inval.spawn m i (fun api ->
        for _ = 1 to 3 do
          api.write_lock "m";
          let v = api.read "acc" in
          api.write "acc" (v + 1);
          api.write_unlock "m"
        done;
        api.barrier ();
        if i = 0 then total := api.read "acc")
  done;
  ignore (Inval.run m);
  check_int "nine increments" 9 !total

let test_invalidate_decrement_atomic () =
  let e = Engine.create () in
  let m = Inval.create e ~procs:3 () in
  let final = ref 99 in
  for i = 0 to 2 do
    Inval.spawn m i (fun api ->
        if i = 0 then api.init_counter "c" 9;
        api.barrier ();
        for _ = 1 to 3 do
          api.decrement "c" ~amount:1
        done;
        api.await "c" 0;
        if i = 0 then final := api.read "c")
  done;
  ignore (Inval.run m);
  check_int "exclusive-line decrements are atomic" 0 !final

let test_central_vs_invalidate_read_cost () =
  (* read-heavy sharing: the invalidate protocol's cached reads beat the
     central server's per-read round trips *)
  let run_one create_run =
    create_run (fun spawn ->
        spawn 0 (fun (api : Mc_dsm.Api.t) ->
            api.write "x" 1;
            api.barrier ();
            api.barrier ());
        spawn 1 (fun (api : Mc_dsm.Api.t) ->
            api.barrier ();
            for _ = 1 to 50 do
              ignore (api.read "x")
            done;
            api.barrier ()))
  in
  let central_time =
    run_one (fun body ->
        let e = Engine.create () in
        let m = Central.create e ~procs:2 () in
        body (Central.spawn m);
        Central.run m)
  in
  let inval_time =
    run_one (fun body ->
        let e = Engine.create () in
        let m = Inval.create e ~procs:2 () in
        body (Inval.spawn m);
        Inval.run m)
  in
  check "caching wins on read-heavy workloads" true (inval_time < central_time)

(* randomized programs on both baselines: recorded histories are always
   sequentially consistent (they are linearizable memories) *)
let test_random_programs_are_sc () =
  for seed = 1 to 8 do
    let rng = Mc_util.Rng.make (9000 + seed) in
    let procs = 2 in
    let next_value = ref 0 in
    let plans =
      List.init procs (fun _ ->
          List.init 5 (fun _ ->
              let loc = Mc_util.Rng.pick rng [| "ra"; "rb" |] in
              if Mc_util.Rng.bool rng then begin
                incr next_value;
                `W (loc, !next_value)
              end
              else `R loc))
    in
    let run_plan (api : Mc_dsm.Api.t) plan =
      List.iter
        (function
          | `W (loc, v) -> api.write loc v
          | `R loc -> ignore (api.read loc))
        plan
    in
    let check_one name history =
      match Sequential.is_sequentially_consistent ~max_states:100_000 history with
      | Sequential.Consistent | Sequential.Unknown -> ()
      | Sequential.Inconsistent ->
        Alcotest.failf "%s produced a non-SC history (seed %d)" name seed
    in
    let e = Engine.create () in
    let m = Central.create e ~record:true ~procs () in
    List.iteri (fun i plan -> Central.spawn m i (fun api -> run_plan api plan)) plans;
    ignore (Central.run m);
    check_one "central" (Central.history m);
    let e = Engine.create () in
    let m = Inval.create e ~record:true ~procs () in
    List.iteri (fun i plan -> Inval.spawn m i (fun api -> run_plan api plan)) plans;
    ignore (Inval.run m);
    check_one "invalidate" (Inval.history m)
  done

(* misuse: every memory — both baselines and the mixed runtime — rejects
   an unlock by a process that does not hold the lock, instead of freeing
   the holder's lock for the next requester *)
let memories =
  [
    ( "central",
      fun program ->
        let m = Central.create (Engine.create ()) ~procs:3 () in
        program (Central.spawn m);
        fun () -> Central.run m );
    ( "invalidate",
      fun program ->
        let m = Inval.create (Engine.create ()) ~procs:3 () in
        program (Inval.spawn m);
        fun () -> Inval.run m );
    ( "runtime",
      fun program ->
        let rt =
          Mc_dsm.Runtime.create (Engine.create ()) (Mc_dsm.Config.default ~procs:3)
        in
        program (Mc_dsm.Api.spawn rt);
        fun () -> Mc_dsm.Runtime.run rt );
  ]

(* process 0 holds [m] through a long compute, process 1 unlocks it
   without holding it, process 2 then requests it *)
let non_holder_program ~write spawn =
  spawn 0 (fun (api : Mc_dsm.Api.t) ->
      if write then api.write_lock "m" else api.read_lock "m";
      api.compute 5000.;
      if write then api.write_unlock "m" else api.read_unlock "m");
  spawn 1 (fun (api : Mc_dsm.Api.t) ->
      api.compute 500.;
      if write then api.write_unlock "m" else api.read_unlock "m");
  spawn 2 (fun (api : Mc_dsm.Api.t) ->
      api.compute 1000.;
      api.write_lock "m";
      api.write "x" 1;
      api.write_unlock "m")

let test_non_holder_unlock ~write () =
  List.iter
    (fun (name, start) ->
      let run = start (non_holder_program ~write) in
      match run () with
      | _ -> Alcotest.failf "%s: unlock by a non-holder accepted" name
      | exception Invalid_argument _ -> ())
    memories

let () =
  Alcotest.run "mc_baselines"
    [
      ( "sc_central",
        [
          Alcotest.test_case "basic round trips" `Quick test_central_basic;
          Alcotest.test_case "no dekker anomaly" `Quick test_central_never_dekker_violates;
          Alcotest.test_case "locks" `Quick test_central_sync_ops;
          Alcotest.test_case "awaits and counters" `Quick test_central_await_and_counters;
        ] );
      ( "sc_invalidate",
        [
          Alcotest.test_case "coherence" `Quick test_invalidate_basic_coherence;
          Alcotest.test_case "cache hits" `Quick test_invalidate_cache_hits;
          Alcotest.test_case "invalidation on write" `Quick
            test_invalidate_write_invalidates_readers;
          Alcotest.test_case "no dekker anomaly" `Quick test_invalidate_dekker;
          Alcotest.test_case "ownership migration" `Quick
            test_invalidate_ownership_migration;
          Alcotest.test_case "atomic decrements" `Quick test_invalidate_decrement_atomic;
          Alcotest.test_case "caching beats central reads" `Quick
            test_central_vs_invalidate_read_cost;
        ] );
      ( "misuse",
        [
          Alcotest.test_case "write unlock by a non-holder" `Quick
            (test_non_holder_unlock ~write:true);
          Alcotest.test_case "read unlock by a non-reader" `Quick
            (test_non_holder_unlock ~write:false);
        ] );
      ( "linearizability",
        [
          Alcotest.test_case "random programs are SC" `Slow
            test_random_programs_are_sc;
        ] );
    ]
