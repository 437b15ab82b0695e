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
     offline closure engine's ([Lattice.closure_failures]), restricted to
     non-fetched reads, while the fetched read validates against its
     snapshot, and a 200-process run in the shard-1000 pattern checked
     online agrees with the closure engine on its subscribed reads;
   - shard-1000's own program at 1,000 processes, its sim time, messages
     and bytes pinned;
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

(* a placement with group views or update batching is rejected when the
   runtime is built, naming the field, not at its first use *)
let rejected_at_creation field with_field () =
  let pl = P.create ~shards:2 ~policy:(P.Range { objects = 20 }) () in
  let cfg = with_field { (Config.default ~procs:2) with placement = Some pl } in
  match Runtime.create (Engine.create ()) cfg with
  | _ -> Alcotest.failf "%s under placement accepted" field
  | exception Invalid_argument msg ->
    check ("names " ^ field) true (String.starts_with ~prefix:("Runtime.create: " ^ field) msg)

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
      (Lattice.closure_failures (Runtime.history rt) Lattice.Mixed)
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
      (Lattice.closure_failures (Runtime.history rt_sh) Lattice.Mixed)
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

(* ------------------------------------------------------------------ *)
(* Many processes: the shard-1000 pattern at 200 processes              *)
(* ------------------------------------------------------------------ *)

(* Range placement, every process subscribed to its own shard and the
   next one; each process writes its own slice, crosses a barrier, reads
   its neighbour's slice (subscribed: the PRAM read rule) and the one
   after (not subscribed: a fetch), and crosses a second barrier. 201
   consistency families, checked online during the run. *)
let test_many_procs_online () =
  let procs = 200 and per = 10 in
  let pl = P.create ~shards:procs ~policy:(P.Range { objects = procs * per }) () in
  for i = 0 to procs - 1 do
    P.subscribe pl ~node:i ~shard:i;
    P.subscribe pl ~node:i ~shard:((i + 1) mod procs)
  done;
  let engine = Engine.create () in
  let cfg =
    {
      (Config.default ~procs) with
      record = true;
      check_online = true;
      placement = Some pl;
    }
  in
  let rt = Runtime.create engine cfg in
  let loc i = Printf.sprintf "s:%d" (i * per) in
  let sum = ref 0 in
  for i = 0 to procs - 1 do
    Runtime.spawn_process rt i (fun p ->
        Runtime.write p (loc i) (i + 1);
        Runtime.barrier p;
        let near = Runtime.read p ~label:Op.PRAM (loc ((i + 1) mod procs)) in
        let far = Runtime.read p ~label:Op.PRAM (loc ((i + 2) mod procs)) in
        sum := !sum + near + far;
        Runtime.barrier p)
  done;
  ignore (Runtime.run rt);
  check_int "exact" (procs * (procs + 1)) !sum;
  let chk = Option.get (Runtime.online_checker rt) in
  check "fetches happened" true ((Online.stats chk).Online.fetched_reads > 0);
  let fetched = Online.fetched_ids chk in
  let offline =
    List.filter
      (fun (f : Lattice.failure) -> not (List.mem f.Lattice.read_id fetched))
      (Lattice.closure_failures (Runtime.history rt) Lattice.Mixed)
  in
  check "online = offline on non-fetched reads" true (Online.failures chk = offline)

(* The benchmark's shard-1000 program at seed 42: 1,000 processes over
   100,000 objects in range placement, each subscribed to its own shard
   and the next; per round each writes 4 slots of its own range,
   crosses a barrier, reads the same slots of its two clockwise
   neighbours (a subscribed read and a fetch) and crosses a second
   barrier, for two rounds. The seed draws the written values and the
   30-70 us latencies. Its sim time, messages and bytes are pinned, so a
   change to the network, the barrier tree or the fetch path that moves
   the simulated run at this scale fails here. *)
let test_shard_1000_pinned () =
  let procs = 1000 and objects = 100_000 and writes = 4 and rounds = 2 and seed = 42 in
  let per = (objects + procs - 1) / procs in
  let slot_loc proc slot = Printf.sprintf "s:%d" ((proc * per) + (slot mod per)) in
  let rng = Rng.make seed in
  let values =
    Array.init procs (fun _ -> Array.init (writes * rounds) (fun _ -> 1 + Rng.int rng 1_000_000))
  in
  let pl = P.create ~shards:procs ~policy:(P.Range { objects }) () in
  for i = 0 to procs - 1 do
    P.subscribe pl ~node:i ~shard:i;
    P.subscribe pl ~node:i ~shard:((i + 1) mod procs)
  done;
  let latency = Latency.uniform (Rng.make seed) ~lo:30. ~hi:70. in
  let rt =
    Runtime.create (Engine.create ()) ~latency
      { (Config.default ~procs) with timestamped_updates = false; placement = Some pl }
  in
  let sums = Array.make procs 0 in
  for i = 0 to procs - 1 do
    Api.spawn rt i (fun (api : Api.t) ->
        for r = 0 to rounds - 1 do
          for k = 0 to writes - 1 do
            let slot = (r * writes) + k in
            api.write (slot_loc i slot) values.(i).(slot)
          done;
          api.barrier ();
          for k = 0 to writes - 1 do
            let slot = (r * writes) + k in
            let near = api.read ~label:Op.PRAM (slot_loc ((i + 1) mod procs) slot) in
            let far = api.read ~label:Op.PRAM (slot_loc ((i + 2) mod procs) slot) in
            sums.(i) <- sums.(i) + near + far
          done;
          api.barrier ()
        done)
  done;
  let sim_time = Runtime.run rt in
  let net = Runtime.network rt in
  let sum a = Array.fold_left ( + ) 0 a in
  for i = 0 to procs - 1 do
    check_int "exact sum" (sum values.((i + 1) mod procs) + sum values.((i + 2) mod procs))
      sums.(i)
  done;
  Alcotest.(check string) "sim time" "2567.9736361826708" (Printf.sprintf "%.17g" sim_time);
  check_int "messages" 31_992 (Network.messages_sent net);
  check_int "bytes" 1_600_896 (Network.bytes_sent net)

(* ------------------------------------------------------------------ *)
(* The barrier's combining tree                                        *)
(* ------------------------------------------------------------------ *)

(* Random placements — random subscriber sets, shards with one
   subscriber, nodes subscribed to nothing — run random shard writes and
   full barriers at fanouts 1, 2, 4 and [procs] (the central manager).
   Hops take 0.05-1.95 us, less than a send, so the barrier tree takes
   the placement's fanout.
   Each round writes, crosses a barrier, reads subscribed locations,
   crosses a second barrier, reads unsubscribed ones (fetches, served
   by homes that have left the first barrier), and crosses a third.
   Every location has one writer ("shard/writer/slot"), so every read
   is exact; every run must read, sum and end with the memory of the
   fanout-[procs] run, and at every barrier exit each process's expected
   entries must equal [Oracle.Barrier_counts]. *)
let test_barrier_tree_differential () =
  for seed = 1 to 24 do
    let rng = Rng.make (7100 + seed) in
    let procs = 3 + Rng.int rng 10 and shards = 1 + Rng.int rng 6 in
    let idle = Rng.int rng procs (* subscribed to nothing *) in
    let subs =
      Array.init shards (fun _ ->
          match Rng.int rng 3 with
          | 0 -> [ Rng.int rng procs ]
          | _ -> List.filter (fun _ -> Rng.int rng 3 = 0) (List.init procs Fun.id))
      |> Array.map (List.filter (fun n -> n <> idle))
    in
    let subscribed ~node ~shard = List.mem node subs.(shard) in
    let rounds = 1 + Rng.int rng 3 in
    (* per process and round: the (shard, slot, value) writes, then the
       locations read *)
    let loc shard writer slot = Printf.sprintf "%d/%d/%d" shard writer slot in
    let plan =
      Array.init procs (fun i ->
          let mine = List.filter (fun s -> subscribed ~node:i ~shard:s) (List.init shards Fun.id) in
          Array.init rounds (fun _ ->
              let writes =
                if mine = [] then []
                else
                  List.init (Rng.int rng 4) (fun _ ->
                      (List.nth mine (Rng.int rng (List.length mine)), Rng.int rng 3, 1 + Rng.int rng 999))
              in
              let reads =
                List.init (1 + Rng.int rng 4) (fun _ ->
                    loc (Rng.int rng shards) (Rng.int rng procs) (Rng.int rng 3))
              in
              (writes, reads)))
    in
    let all_locs =
      List.sort_uniq compare
        (List.concat_map
           (fun s -> List.concat_map (fun w -> List.init 3 (loc s w)) (List.init procs Fun.id))
           (List.init shards Fun.id))
    in
    let shard_of l = int_of_string (List.hd (String.split_on_char '/' l)) in
    let run fanout =
      let pl = P.create ~shards ~policy:(P.Explicit shard_of) ~fanout () in
      Array.iteri (fun shard nodes -> List.iter (fun node -> P.subscribe pl ~node ~shard) nodes) subs;
      let engine = Engine.create () in
      let cfg =
        { (Config.default ~procs) with timestamped_updates = false; placement = Some pl }
      in
      let latency = Latency.uniform (Rng.make (seed * 31)) ~lo:0.05 ~hi:1.95 in
      let rt = Runtime.create engine ~latency cfg in
      check_int
        (Printf.sprintf "seed %d fanout %d: barrier tree fanout" seed fanout)
        fanout (Runtime.barrier_fanout rt);
      let oracle = Oracle.Barrier_counts.create ~procs ~shards in
      let reference = Hashtbl.create 64 in
      let reads = Array.make procs [] and bad_expect = ref [] in
      for i = 0 to procs - 1 do
        Runtime.spawn_process rt i (fun p ->
            let episode = ref 0 in
            let barrier () =
              Oracle.Barrier_counts.arrive oracle ~proc:i ~episode:!episode;
              Runtime.barrier p;
              let expected =
                Oracle.Barrier_counts.expected oracle ~episode:!episode ~subscribed ~proc:i
              in
              if Runtime.barrier_expect rt ~proc:i <> expected then
                bad_expect := (i, !episode) :: !bad_expect;
              incr episode
            in
            let read l =
              let v = Runtime.read p ~label:Op.PRAM l in
              let want = Option.value (Hashtbl.find_opt reference l) ~default:0 in
              reads.(i) <- (l, v, want) :: reads.(i)
            in
            Array.iter
              (fun (writes, locs) ->
                List.iter
                  (fun (shard, slot, v) ->
                    Runtime.write p (loc shard i slot) v;
                    Hashtbl.replace reference (loc shard i slot) v;
                    Oracle.Barrier_counts.write oracle ~proc:i ~shard)
                  writes;
                barrier ();
                List.iter
                  (fun l -> if subscribed ~node:i ~shard:(shard_of l) then read l)
                  locs;
                barrier ();
                List.iter
                  (fun l -> if not (subscribed ~node:i ~shard:(shard_of l)) then read l)
                  locs;
                barrier ())
              plan.(i))
      done;
      ignore (Runtime.run rt);
      let name what = Printf.sprintf "seed %d fanout %d: %s" seed fanout what in
      Alcotest.(check (list (pair int int))) (name "expected entries = dense counts") []
        !bad_expect;
      Array.iter
        (List.iter (fun (l, v, want) -> check_int (name ("exact read of " ^ l)) want v))
        reads;
      check_int (name "one arrival per process and episode")
        (3 * rounds * (procs - 1))
        (List.assoc "barrier_arrive" (Network.messages_by_kind (Runtime.network rt)));
      let memory =
        List.init procs (fun proc -> List.map (fun l -> Runtime.peek rt ~proc l) all_locs)
      in
      let sums = Array.map (List.fold_left (fun acc (_, v, _) -> acc + v) 0) reads in
      (reads, sums, memory)
    in
    let central = run procs in
    List.iter
      (fun fanout ->
        check (Printf.sprintf "seed %d: fanout %d = central manager" seed fanout) true
          (run fanout = central))
      [ 1; 2; 4 ]
  done

(* A subset barrier under a placement whose members sit on two levels
   of the fanout-2 tree [0; 1; 2; 3; 5; 6] (node 0, a non-member, is the
   root; hops of 0.5-4.5 us keep the placement's fanout), while
   non-member 7 keeps writing member 3's shard. Members read each
   other's locations exactly, and the online checker finds nothing. *)
let test_subset_barrier_placement () =
  let procs = 8 and members = [ 1; 2; 3; 5; 6 ] in
  let pl = P.create ~shards:procs ~policy:(P.Range { objects = procs * 10 }) ~fanout:2 () in
  let next m =
    let rec from = function a :: (b :: _ as rest) -> if a = m then b else from rest | _ -> List.hd members in
    from members
  in
  List.iter
    (fun m ->
      P.subscribe pl ~node:m ~shard:m;
      P.subscribe pl ~node:m ~shard:(next m))
    members;
  P.subscribe pl ~node:7 ~shard:7;
  P.subscribe pl ~node:7 ~shard:3;
  let engine = Engine.create () in
  let cfg =
    {
      (Config.default ~procs) with
      record = true;
      check_online = true;
      placement = Some pl;
      timestamped_updates = false;
    }
  in
  let latency = Latency.uniform (Rng.make 19) ~lo:0.5 ~hi:4.5 in
  let rt = Runtime.create engine ~latency cfg in
  check_int "barrier tree fanout" 2 (Runtime.barrier_fanout rt);
  let loc shard slot = Printf.sprintf "s:%d" ((shard * 10) + slot) in
  let rounds = 4 and reads = ref [] in
  List.iter
    (fun m ->
      Runtime.spawn_process rt m (fun p ->
          for r = 1 to rounds do
            Runtime.write p (loc m 0) ((100 * r) + m);
            Runtime.barrier_subset p members;
            reads := (Runtime.read p ~label:Op.PRAM (loc (next m) 0), (100 * r) + next m) :: !reads;
            Runtime.barrier_subset p members
          done))
    members;
  let outsider_writes = ref 0 in
  Runtime.spawn_process rt 7 (fun p ->
      for k = 1 to 40 do
        Runtime.write p (loc 3 (1 + (k mod 5))) k;
        incr outsider_writes;
        Runtime.compute p 5.
      done);
  ignore (Runtime.run rt);
  check_int "the non-member wrote throughout" 40 !outsider_writes;
  check_int "every member read every round" (rounds * List.length members) (List.length !reads);
  List.iter (fun (got, want) -> check_int "member read is exact" want got) !reads;
  let tree = P.Tree.create ~fanout:2 [| 0; 1; 2; 3; 5; 6 |] in
  check "members on two tree levels" true
    (P.Tree.parent tree 1 = Some 0 && P.Tree.parent tree 5 = Some 1);
  check_int "online checker: no failures" 0
    (List.length (Online.failures (Option.get (Runtime.online_checker rt))))

(* The barrier tree's fanout follows the latency model: under the
   default one (hops of 50 us on average, sends of 2 us) a node releases
   up to 50 children, so 8 and 40 processes keep Section 6's central
   manager and 1,000 get a two-level tree; a placement fanout above that
   wins; hops cheaper than a send leave the placement's fanout; full
   replication always uses the central manager. *)
let test_barrier_fanout_rule () =
  let fanout ?latency ?(pl_fanout = 4) ?(placed = true) procs =
    let placement =
      if placed then Some (P.create ~shards:1 ~policy:(P.Range { objects = 1 }) ~fanout:pl_fanout ())
      else None
    in
    let cfg = { (Config.default ~procs) with placement; timestamped_updates = false } in
    Runtime.barrier_fanout (Runtime.create (Engine.create ()) ?latency cfg)
  in
  List.iter
    (fun procs ->
      check (Printf.sprintf "%d processes: central manager" procs) true (fanout procs >= procs - 1))
    [ 3; 8; 40; 51 ];
  check_int "1,000 processes: fanout 50" 50 (fanout 1000);
  check_int "a larger placement fanout wins" 64 (fanout ~pl_fanout:64 1000);
  check_int "hops cheaper than a send: the placement's fanout" 4
    (fanout ~latency:(Latency.constant 1.5) 1000);
  check_int "full replication: the central manager" 1000 (fanout ~placed:false 1000)

(* Set-up under a placement is linear in the process count: from 250 to
   1,000 processes, [Runtime.create] and [Network.create] allocate at
   most about 4x the words (a dense procs x procs structure would make
   it 16x). *)
let test_setup_allocation_linear () =
  (* [Gc.minor_words] counts the minor heap exactly; [Gc.counters]'
     major and promoted words count direct major allocations *)
  let words f =
    let mi = Gc.minor_words () and _, pr, ma = Gc.counters () in
    ignore (Sys.opaque_identity (f ()));
    let mi' = Gc.minor_words () and _, pr', ma' = Gc.counters () in
    mi' -. mi +. (ma' -. ma) -. (pr' -. pr)
  in
  let runtime procs =
    let pl = P.create ~shards:procs ~policy:(P.Range { objects = procs * 100 }) () in
    for i = 0 to procs - 1 do
      P.subscribe pl ~node:i ~shard:i;
      P.subscribe pl ~node:i ~shard:((i + 1) mod procs)
    done;
    let cfg = { (Config.default ~procs) with placement = Some pl; timestamped_updates = false } in
    words (fun () -> Runtime.create (Engine.create ()) cfg)
  in
  let network nodes =
    words (fun () -> Mc_dsm.Cost.network (Engine.create ()) ~nodes ())
  in
  let step f = f 1000 /. f 250 in
  let r = step runtime and n = step network in
  check (Printf.sprintf "Runtime.create: 4x processes, %.1fx words" r) true (r < 5.);
  check (Printf.sprintf "Network.create: 4x nodes, %.1fx words" n) true (n < 5.);
  (* a placement replica creates no causal view, main delivery queue or
     invalid table, and a node no lock manager or lock-waiter tables *)
  let w = runtime 1000 in
  check (Printf.sprintf "Runtime.create at 1,000 processes: %.0f words" w) true
    (w <= 750_000.)

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
        [
          Alcotest.test_case "write subscription" `Quick test_write_discipline;
          Alcotest.test_case "groups rejected at creation" `Quick
            (rejected_at_creation "groups" (fun c -> { c with groups = [ [ 0; 1 ] ] }));
          Alcotest.test_case "batching rejected at creation" `Quick
            (rejected_at_creation "batch_max" (fun c -> { c with batch_max = 8 }));
        ] );
      ( "partial-view checking",
        [
          Alcotest.test_case "online = offline off the fetch path" `Quick
            test_partial_view_checker_identity;
          Alcotest.test_case "200 processes online" `Quick test_many_procs_online;
          Alcotest.test_case "1,000 processes pinned" `Quick test_shard_1000_pinned;
        ] );
      ( "solver",
        [
          Alcotest.test_case "sharded = full replication" `Quick
            test_solver_sharded_differential;
        ] );
      ( "barrier tree",
        [
          Alcotest.test_case "any fanout = central manager" `Quick
            test_barrier_tree_differential;
          Alcotest.test_case "subset barrier under placement" `Quick
            test_subset_barrier_placement;
          Alcotest.test_case "fanout from the latency model" `Quick test_barrier_fanout_rule;
          Alcotest.test_case "set-up linear in processes" `Quick
            test_setup_allocation_linear;
        ] );
    ]
