(* Sharded (partially-replicated) mode:

   - replica-level gap tolerance: random shard-update streams with
     subscriber churn (unsubscribe, resubscribe with a state-transfer
     snapshot) and cross-writer reorder converge to the reference state
     on every subscribed shard — including dropping in-flight updates
     already covered by a snapshot;
   - the write-subscription discipline raises;
   - partial-view online checking: on a run with a genuine PRAM
     violation on a subscribed read, the streaming checker's failure
     list (verdicts and [Overwritten] diagnostics) is identical to the
     offline checker's, restricted to non-fetched reads, while the
     fetched read validates against its snapshot;
   - solver differential: the Fig. 2 solver under sharded placement
     computes the same result as under full replication, with a clean
     online verdict despite every foreign-row read being a fetch. *)

module Engine = Mc_sim.Engine
module Runtime = Mc_dsm.Runtime
module Config = Mc_dsm.Config
module Api = Mc_dsm.Api
module Replica = Mc_dsm.Replica
module Network = Mc_net.Network
module Latency = Mc_net.Latency
module P = Mc_placement.Placement
module Op = Mc_history.Op
module Lattice = Mc_consistency.Lattice
module Online = Mc_consistency.Online
module Rng = Mc_util.Rng
module Solver = Mc_apps.Linear_solver

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Gap-tolerant delivery under churn and reorder                       *)
(* ------------------------------------------------------------------ *)

(* Three writers, three shards, one observer. Writers are fully
   subscribed and issue shard writes to writer-private locations (so the
   final value per location is deterministic); every message travels on
   per-link FIFO queues but links drain in random relative order. The
   observer randomly unsubscribes shards and resubscribes them with a
   fresh snapshot (per-writer issue counts + reference values), so
   stale in-flight updates must be recognized and dropped. *)
let test_gap_tolerant_churn () =
  let writers = 3 and shards = 3 in
  for seed = 1 to 40 do
    let rng = Rng.make (5200 + seed) in
    let e = Engine.create () in
    let n = writers + 1 in
    let obs_id = writers in
    let ws = Array.init writers (fun i -> Replica.create e ~id:i ~n ()) in
    Array.iter
      (fun w ->
        for s = 0 to shards - 1 do
          Replica.subscribe_shard w ~shard:s ()
        done)
      ws;
    let obs = Replica.create e ~id:obs_id ~n () in
    for s = 0 to shards - 1 do
      Replica.subscribe_shard obs ~shard:s ()
    done;
    (* reference: issue counts and last value per location *)
    let issued = Array.make_matrix writers shards 0 in
    let ref_view = Hashtbl.create 32 in
    let loc_of s w = Printf.sprintf "o:%d:%d" s w in
    (* per-link FIFO in-flight queues; dst indexes writers then observer *)
    let links = Array.init writers (fun _ -> Array.init n (fun _ -> Queue.create ())) in
    let next_val = ref 0 in
    let deliver ~src ~dst =
      if not (Queue.is_empty links.(src).(dst)) then begin
        let su = Queue.pop links.(src).(dst) in
        let r = if dst = obs_id then obs else ws.(dst) in
        Replica.shard_receive r su
      end
    in
    let snapshot s =
      let clock = List.init writers (fun w -> (w, issued.(w).(s))) in
      let values =
        Hashtbl.fold
          (fun (s', loc) (num, tag) acc ->
            if s' = s then (loc, num, tag) :: acc else acc)
          ref_view []
      in
      (clock, values)
    in
    for _step = 1 to 150 do
      match Rng.int rng 10 with
      | 0 | 1 | 2 | 3 ->
        (* issue a fresh write *)
        let w = Rng.int rng writers and s = Rng.int rng shards in
        incr next_val;
        let v = !next_val in
        let su =
          Replica.shard_write ws.(w) ~shard:s ~loc:(loc_of s w) ~numeric:v ~tag:v
        in
        issued.(w).(s) <- issued.(w).(s) + 1;
        Hashtbl.replace ref_view (s, loc_of s w) (v, v);
        for dst = 0 to n - 1 do
          if dst <> w then Queue.push su links.(w).(dst)
        done
      | 4 | 5 | 6 | 7 ->
        (* drain one message on a random link *)
        deliver ~src:(Rng.int rng writers) ~dst:(Rng.int rng n)
      | 8 ->
        let s = Rng.int rng shards in
        if Replica.shard_subscribed obs ~shard:s then
          Replica.unsubscribe_shard obs ~shard:s
      | _ ->
        let s = Rng.int rng shards in
        if not (Replica.shard_subscribed obs ~shard:s) then begin
          let clock, values = snapshot s in
          Replica.subscribe_shard obs ~clock ~values ~shard:s ()
        end
    done;
    (* resubscribe everything missing (with snapshots), then drain all *)
    for s = 0 to shards - 1 do
      if not (Replica.shard_subscribed obs ~shard:s) then begin
        let clock, values = snapshot s in
        Replica.subscribe_shard obs ~clock ~values ~shard:s ()
      end
    done;
    for src = 0 to writers - 1 do
      for dst = 0 to n - 1 do
        while not (Queue.is_empty links.(src).(dst)) do
          deliver ~src ~dst
        done
      done
    done;
    let name what = Printf.sprintf "seed %d: %s" seed what in
    (* every replica converged to the reference on every shard *)
    Hashtbl.iter
      (fun (s, loc) (num, tag) ->
        check (name (Printf.sprintf "observer %s" loc)) true
          (Replica.shard_read obs ~shard:s loc = (num, tag));
        check (name (Printf.sprintf "observer pram %s" loc)) true
          (Replica.pram_read obs loc = (num, tag));
        Array.iter
          (fun w ->
            check (name (Printf.sprintf "writer %s" loc)) true
              (Replica.shard_read w ~shard:s loc = (num, tag)))
          ws)
      ref_view;
    check_int (name "observer drained") 0 (Replica.pending_count obs);
    Array.iter
      (fun w -> check_int (name "writer drained") 0 (Replica.pending_count w))
      ws
  done

(* QCheck: single writer, single shard — any interleaving of FIFO
   deliveries with churn (resubscription always installs the up-to-date
   snapshot) leaves the subscriber exactly at the reference value. *)
let churn_prop =
  QCheck.Test.make ~name:"single-stream churn convergence" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_range 1 40) (int_bound 5)))
    (fun ops ->
      let e = Engine.create () in
      let w = Replica.create e ~id:0 ~n:2 () in
      Replica.subscribe_shard w ~shard:0 ();
      let obs = Replica.create e ~id:1 ~n:2 () in
      Replica.subscribe_shard obs ~shard:0 ();
      let inflight = Queue.create () in
      let issued = ref 0 and last = ref (0, 0) in
      List.iter
        (fun op ->
          match op with
          | 0 | 1 ->
            incr issued;
            let v = !issued * 10 in
            Queue.push
              (Replica.shard_write w ~shard:0 ~loc:"x" ~numeric:v ~tag:v)
              inflight;
            last := (v, v)
          | 2 | 3 ->
            if not (Queue.is_empty inflight) then
              Replica.shard_receive obs (Queue.pop inflight)
          | 4 ->
            if Replica.shard_subscribed obs ~shard:0 then
              Replica.unsubscribe_shard obs ~shard:0
          | _ ->
            if not (Replica.shard_subscribed obs ~shard:0) then
              Replica.subscribe_shard obs
                ~clock:[ (0, !issued) ]
                ~values:(if !issued = 0 then [] else [ ("x", fst !last, snd !last) ])
                ~shard:0 ())
        ops;
      if not (Replica.shard_subscribed obs ~shard:0) then
        Replica.subscribe_shard obs
          ~clock:[ (0, !issued) ]
          ~values:(if !issued = 0 then [] else [ ("x", fst !last, snd !last) ])
          ~shard:0 ();
      while not (Queue.is_empty inflight) do
        Replica.shard_receive obs (Queue.pop inflight)
      done;
      Replica.shard_read obs ~shard:0 "x" = !last
      && Replica.pending_count obs = 0)

(* ------------------------------------------------------------------ *)
(* Write discipline                                                    *)
(* ------------------------------------------------------------------ *)

let test_write_discipline () =
  let pl = P.create ~shards:4 ~policy:(P.Range { objects = 40 }) () in
  (* proc 0 owns shard 0 (ids 0-9); shard 1 (ids 10-19) is unowned *)
  P.subscribe pl ~node:0 ~shard:0;
  P.subscribe pl ~node:1 ~shard:0;
  let engine = Engine.create () in
  let cfg = { (Config.default ~procs:2) with placement = Some pl } in
  let rt = Runtime.create engine cfg in
  let raises f = try f () |> ignore; false with Invalid_argument _ -> true in
  let unsubscribed_write = ref false
  and group_read = ref false
  and lock = ref false
  and own_ok = ref false in
  Runtime.spawn_process rt 0 (fun p ->
      Runtime.write p "s:3" 7;
      own_ok := Runtime.read p ~label:Op.PRAM "s:3" = 7;
      unsubscribed_write := raises (fun () -> Runtime.write p "s:13" 1);
      group_read :=
        raises (fun () -> Runtime.read p ~label:(Op.Group [ 0; 1 ]) "s:3");
      lock := raises (fun () -> Runtime.write_lock p "l"));
  ignore (Runtime.run rt);
  check "write to own shard + read-your-write" true !own_ok;
  check "write to unsubscribed shard raises" true !unsubscribed_write;
  check "group read raises" true !group_read;
  check "locks raise" true !lock

(* ------------------------------------------------------------------ *)
(* Partial-view checking: online = offline on non-fetched reads        *)
(* ------------------------------------------------------------------ *)

(* Engineer a real PRAM violation on subscribed reads: writer 2 writes
   [a] (shard A, direct edge 2 -> 1) then [b] (shard B, whose tree
   routes 2 -> 0 -> 1); with the 2 -> 1 link paused, process 1 observes
   [b] and then reads the older [a] as 0 — new-then-old across one
   writer's stream. Process 1 also performs one fetched read of an
   unsubscribed location, which must validate against the home snapshot
   and stay out of the failure comparison. *)
let test_partial_view_checker_identity () =
  let pl = P.create ~shards:3 ~policy:(P.Range { objects = 30 }) ~fanout:1 () in
  let loc_a = "s:5" (* shard 0 *) and loc_b = "s:15" (* shard 1 *) in
  let loc_c = "s:25" (* shard 2: subscribed by 0 only; fetched by 1 *) in
  List.iter (fun n -> P.subscribe pl ~node:n ~shard:0) [ 1; 2 ];
  List.iter (fun n -> P.subscribe pl ~node:n ~shard:1) [ 0; 1; 2 ];
  P.subscribe pl ~node:0 ~shard:2;
  (* shard 1's tree rooted at 2 is the chain 2 -> 0 -> 1 *)
  Alcotest.(check (list int)) "chain head" [ 0 ]
    (P.children pl ~shard:1 ~root:2 ~node:2);
  Alcotest.(check (list int)) "chain tail" [ 1 ]
    (P.children pl ~shard:1 ~root:2 ~node:0);
  let engine = Engine.create () in
  let cfg =
    {
      (Config.default ~procs:3) with
      record = true;
      check_online = true;
      placement = Some pl;
      await_label = Op.PRAM;
    }
  in
  let rt = Runtime.create engine cfg in
  Network.pause_link (Runtime.network rt) ~src:2 ~dst:1;
  let seen = ref (-1) in
  Runtime.spawn_process rt 2 (fun p ->
      Runtime.write p loc_a 11;
      Runtime.write p loc_b 22);
  Runtime.spawn_process rt 1 (fun p ->
      Runtime.await p loc_b 22;
      seen := Runtime.read p ~label:Op.PRAM loc_a;
      ignore (Runtime.read p ~label:Op.PRAM loc_c));
  ignore (Runtime.run rt);
  check_int "read of a is stale" 0 !seen;
  let chk = Option.get (Runtime.online_checker rt) in
  let stats = Online.stats chk in
  check_int "one fetched read" 1 stats.Online.fetched_reads;
  let fetched = Online.fetched_ids chk in
  check_int "one fetched id" 1 (List.length fetched);
  let online = Online.failures chk in
  let offline =
    List.filter
      (fun (f : Lattice.failure) -> not (List.mem f.Lattice.read_id fetched))
      (Lattice.failures (Runtime.history rt) Lattice.Mixed)
  in
  check "a violation was engineered" true (online <> []);
  check "online = offline on non-fetched reads (verdicts + diagnostics)" true
    (online = offline)

(* ------------------------------------------------------------------ *)
(* Solver differential: sharded vs full replication                    *)
(* ------------------------------------------------------------------ *)

let test_solver_sharded_differential () =
  let n = 12 and procs = 4 in
  let problem = Solver.Problem.generate ~seed:7 ~n in
  let run placement =
    let engine = Engine.create () in
    let cfg =
      {
        (Config.default ~procs) with
        record = true;
        check_online = placement <> None;
        placement;
      }
    in
    let latency = Latency.uniform (Rng.make 13) ~lo:5. ~hi:90. in
    let rt = Runtime.create engine ~latency cfg in
    let res =
      Solver.launch ~spawn:(Api.spawn rt) ~procs ~variant:Solver.Barrier_pram
        problem
    in
    ignore (Runtime.run rt);
    (Option.get !res, rt)
  in
  let full, rt_full = run None in
  let pl = P.create ~shards:8 ~policy:(P.Range { objects = n }) () in
  Solver.subscribe_shards pl ~procs ~n;
  let sharded, rt_sh = run (Some pl) in
  check "same estimate" true (full.Solver.x = sharded.Solver.x);
  check_int "same iterations" full.Solver.iterations sharded.Solver.iterations;
  check "same convergence" true (full.Solver.converged = sharded.Solver.converged);
  check "full run mixed consistent" true
    (Lattice.is_consistent (Runtime.history rt_full) Lattice.Mixed);
  let chk = Option.get (Runtime.online_checker rt_sh) in
  check "sharded run passes the online checker" true (Online.is_consistent chk);
  check "fetches actually happened" true ((Online.stats chk).Online.fetched_reads > 0);
  check "fetch counter agrees" true (Runtime.fetch_count rt_sh > 0);
  (* offline, restricted to non-fetched reads, agrees (here: both clean) *)
  let fetched = Online.fetched_ids chk in
  let offline =
    List.filter
      (fun (f : Lattice.failure) -> not (List.mem f.Lattice.read_id fetched))
      (Lattice.failures (Runtime.history rt_sh) Lattice.Mixed)
  in
  check "offline clean on non-fetched reads" true (offline = []);
  (* partial replication really holds less state than full replication *)
  let max_resident rt =
    let m = ref 0 in
    for i = 0 to procs - 1 do
      m := max !m (Runtime.resident_objects rt ~proc:i)
    done;
    !m
  in
  check "resident state shrank" true (max_resident rt_sh < max_resident rt_full)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "shard"
    [
      ( "gap tolerance",
        [
          Alcotest.test_case "churn + reorder convergence" `Quick
            test_gap_tolerant_churn;
          qt churn_prop;
        ] );
      ( "discipline",
        [ Alcotest.test_case "write subscription" `Quick test_write_discipline ] );
      ( "partial-view checking",
        [
          Alcotest.test_case "online = offline off the fetch path" `Quick
            test_partial_view_checker_identity;
        ] );
      ( "solver",
        [
          Alcotest.test_case "sharded = full replication" `Quick
            test_solver_sharded_differential;
        ] );
    ]
