(* Causal delivery: the replica's per-writer queues against a plain
   rescan of pending lists, and runtime executions pinned to frozen
   digests.

   - replica level: random valid update streams (FIFO per writer,
     arbitrarily interleaved across writers) leave a replica and the
     rescan oracle ([Oracle.Delivery]) in identical state after every
     single receive — main causal view, a group view, a demand
     obligation — and likewise random multi-writer shard streams for
     the per-shard queues;
   - apply order: a directed stream pins the (pass, arrival) order on
     the main view, a group view and a shard queue;
   - runtime level: random phase-structured workloads (writes, PRAM and
     causal reads, decrements, lock-protected sections, barriers) under
     every propagation mode, subscriber routing (a placement per access
     pattern), every Section-5 application and batched and unbatched
     writes each match a frozen digest of their recorded history and
     final memory. The digests
     were recorded with the rescan engine running beside this one, both
     producing the same executions;
   - update batching: encode/decode roundtrips, batched runs preserve
     the unbatched final memory and verdict, cost strictly fewer
     messages and bytes, and the window timer flushes a stalled
     outbox. *)

module Engine = Mc_sim.Engine
module Runtime = Mc_dsm.Runtime
module Config = Mc_dsm.Config
module Api = Mc_dsm.Api
module Replica = Mc_dsm.Replica
module Protocol = Mc_dsm.Protocol
module Network = Mc_net.Network
module Placement = Mc_placement.Placement
module Latency = Mc_net.Latency
module Op = Mc_history.Op
module History = Mc_history.History
module Lattice = Mc_consistency.Lattice
module Rng = Mc_util.Rng
module Solver = Mc_apps.Linear_solver
module Em = Mc_apps.Em_field
module Cholesky = Mc_apps.Cholesky
module Sparse = Mc_apps.Sparse_spd
module Pipeline = Mc_apps.Pipeline
module Rescan = Oracle.Delivery

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_cell = Alcotest.(check (pair int int))

(* feed [deliver] an arbitrary interleaving of [streams] that keeps each
   stream in order *)
let interleave rng streams deliver =
  let remaining = Array.map ref streams in
  let rec go () =
    let nonempty =
      List.filter (fun i -> !(remaining.(i)) <> []) (List.init (Array.length streams) Fun.id)
    in
    match nonempty with
    | [] -> ()
    | is -> (
      let i = List.nth is (Rng.int rng (List.length is)) in
      match !(remaining.(i)) with
      | u :: rest ->
        remaining.(i) := rest;
        deliver u;
        go ()
      | [] -> assert false)
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Replica-level stream differential                                   *)
(* ------------------------------------------------------------------ *)

(* Build a valid execution among [writers] replicas: each step either
   issues a fresh update at a random writer or lets a writer receive the
   oldest in-flight update from a peer, so later updates carry rich,
   genuinely cross-writer dependency clocks. Returns the per-writer
   update streams in issue order. *)
let gen_valid_streams rng ~writers ~per_writer =
  let e = Engine.create () in
  let n = writers + 1 in
  let ws = Array.init writers (fun i -> Replica.create e ~id:i ~n ()) in
  let queues = Array.make writers [] in
  let inflight = Array.init writers (fun _ -> Array.init writers (fun _ -> Queue.create ())) in
  let locs = [| "x"; "y"; "z"; "w" |] in
  let issued = Array.make writers 0 in
  for _ = 1 to writers * per_writer * 3 do
    let i = Rng.int rng writers in
    if Rng.bool rng && issued.(i) < per_writer then begin
      let u =
        if Rng.int rng 4 = 0 then
          fst (Replica.local_dec ws.(i) ~loc:"cnt" ~amount:1)
        else
          Replica.local_write ws.(i) ~loc:(Rng.pick rng locs)
            ~numeric:(Rng.int rng 100)
            ~tag:((100 * (i + 1)) + issued.(i) + 1)
      in
      issued.(i) <- issued.(i) + 1;
      queues.(i) <- u :: queues.(i);
      for j = 0 to writers - 1 do
        if j <> i then Queue.push u inflight.(j).(i)
      done
    end
    else begin
      let peers =
        List.filter
          (fun j -> j <> i && not (Queue.is_empty inflight.(i).(j)))
          (List.init writers Fun.id)
      in
      match peers with
      | [] -> ()
      | ps ->
        let j = List.nth ps (Rng.int rng (List.length ps)) in
        Replica.receive ws.(i) (Queue.pop inflight.(i).(j))
    end
  done;
  Array.map List.rev queues

let test_replica_stream_differential () =
  let locs = [ "x"; "y"; "z"; "w"; "cnt" ] in
  for seed = 1 to 25 do
    let rng = Rng.make (4000 + seed) in
    let writers = 2 + Rng.int rng 3 in
    let streams = gen_valid_streams rng ~writers ~per_writer:6 in
    let n = writers + 1 in
    let group = [ 0; 1 ] in
    let r = Replica.create (Engine.create ()) ~id:writers ~n ~groups:[ group ] () in
    let o = Rescan.create ~n ~groups:[ group ] () in
    (* a demand obligation whose clock comes from a real update, so it
       is eventually satisfied mid-stream *)
    (match Array.to_list streams |> List.concat with
    | u :: _ ->
      let dep = Array.copy u.Protocol.dep in
      dep.(u.Protocol.writer) <- u.Protocol.useq;
      Replica.mark_invalid r "x" dep;
      Rescan.mark_invalid o "x" dep
    | [] -> ());
    let step = ref 0 in
    interleave rng streams (fun u ->
        Replica.receive r u;
        Rescan.receive o u;
        incr step;
        let name what = Printf.sprintf "seed %d step %d: %s" seed !step what in
        check (name "applied") true (Replica.applied r = Rescan.applied o);
        check (name "received") true (Replica.received r = Rescan.received o);
        check_int (name "pending") (Rescan.pending_count o) (Replica.pending_count r);
        check (name "blocked x") (Rescan.location_blocked o "x")
          (Replica.location_blocked r "x");
        List.iter
          (fun loc ->
            check_cell (name ("causal " ^ loc)) (Rescan.causal_read o loc)
              (Replica.causal_read r loc);
            check_cell (name ("pram " ^ loc)) (Rescan.pram_read o loc)
              (Replica.pram_read r loc);
            check_cell (name ("group " ^ loc))
              (Rescan.group_read o ~group loc)
              (Replica.group_read r ~group loc))
          locs);
    (* the receiver got every update, so everything must have applied *)
    check_int (Printf.sprintf "seed %d: nothing left pending" seed) 0
      (Replica.pending_count r)
  done

(* A valid sharded execution among [writers] replicas subscribed to
   every shard: each step either issues a shard write or decrement at a
   random writer, to a location of a random shard that the other writers
   also write, or lets a writer receive the oldest in-flight update from
   a peer, so later updates carry genuine cross-writer delta clocks.
   Returns each (writer, shard) stream in issue order. *)
let gen_shard_streams rng ~writers ~shards ~per_writer =
  let e = Engine.create () in
  let n = writers + 1 in
  let ws =
    Array.init writers (fun i ->
        let r = Replica.create e ~id:i ~n ~causal_delivery:false () in
        for shard = 0 to shards - 1 do
          Replica.subscribe_shard r ~shard ()
        done;
        r)
  in
  let streams = Array.make_matrix writers shards [] in
  let inflight = Array.init writers (fun _ -> Array.init writers (fun _ -> Queue.create ())) in
  let issued = Array.make writers 0 in
  for _ = 1 to writers * per_writer * 3 do
    let i = Rng.int rng writers in
    if Rng.bool rng && issued.(i) < per_writer then begin
      let shard = Rng.int rng shards in
      let su =
        if Rng.int rng 4 = 0 then
          fst
            (Replica.shard_dec ws.(i) ~shard
               ~loc:(Printf.sprintf "s%d:cnt" shard)
               ~amount:1)
        else
          Replica.shard_write ws.(i) ~shard
            ~loc:(Printf.sprintf "s%d:%s" shard (Rng.pick rng [| "x"; "y" |]))
            ~numeric:(Rng.int rng 100)
            ~tag:((100 * (i + 1)) + issued.(i) + 1)
      in
      issued.(i) <- issued.(i) + 1;
      streams.(i).(shard) <- su :: streams.(i).(shard);
      for j = 0 to writers - 1 do
        if j <> i then Queue.push su inflight.(j).(i)
      done
    end
    else begin
      let peers =
        List.filter
          (fun j -> j <> i && not (Queue.is_empty inflight.(i).(j)))
          (List.init writers Fun.id)
      in
      match peers with
      | [] -> ()
      | ps ->
        let j = List.nth ps (Rng.int rng (List.length ps)) in
        Replica.shard_receive ws.(i) (Queue.pop inflight.(i).(j))
    end
  done;
  Array.concat (Array.to_list (Array.map (Array.map List.rev) streams))

(* an observer subscribed to a random subset of the shards receives every
   (writer, shard) stream in order, the streams interleaved at random —
   updates routinely arrive ahead of the ones they depend on — and must
   match the rescan after every receive *)
let test_shard_stream_differential () =
  let shards = 3 in
  for seed = 1 to 25 do
    let rng = Rng.make (4600 + seed) in
    let writers = 2 + Rng.int rng 3 in
    let streams = gen_shard_streams rng ~writers ~shards ~per_writer:8 in
    let n = writers + 1 in
    let r = Replica.create (Engine.create ()) ~id:writers ~n ~causal_delivery:false () in
    let o = Rescan.create ~n () in
    let subscribed =
      List.filter (fun s -> s = 0 || Rng.bool rng) (List.init shards Fun.id)
    in
    List.iter
      (fun shard ->
        Replica.subscribe_shard r ~shard ();
        Rescan.subscribe_shard o ~shard ())
      subscribed;
    let locs s = List.map (Printf.sprintf "s%d:%s" s) [ "x"; "y"; "cnt" ] in
    let step = ref 0 in
    interleave rng streams (fun su ->
        Replica.shard_receive r su;
        Rescan.shard_receive o su;
        incr step;
        let name what = Printf.sprintf "seed %d step %d: %s" seed !step what in
        check (name "queue depths") true
          (Replica.shard_queue_depths r = Rescan.shard_queue_depths o);
        for s = 0 to shards - 1 do
          List.iter
            (fun loc ->
              check_cell (name ("pram " ^ loc)) (Rescan.pram_read o loc)
                (Replica.pram_read r loc))
            (locs s)
        done;
        List.iter
          (fun shard ->
            check (name (Printf.sprintf "shard %d clock" shard)) true
              (Replica.shard_clock r ~shard = Rescan.shard_clock o ~shard);
            List.iter
              (fun loc ->
                check_cell (name ("shard " ^ loc))
                  (Rescan.shard_read o ~shard loc)
                  (Replica.shard_read r ~shard loc))
              (locs shard))
          subscribed);
    check_int (Printf.sprintf "seed %d: nothing left pending" seed) 0
      (Replica.pending_count r)
  done

(* ------------------------------------------------------------------ *)
(* Apply order                                                         *)
(* ------------------------------------------------------------------ *)

(* Z:1 depends on nothing, V:1 on Z:1, and P:1 (L := 100) and Q:1
   (L := 200) on V:1; they arrive P, V, Q, Z. The rescan applies Z in
   pass 1, V and then Q in pass 2 (Q sits after V in arrival order), and
   P in pass 3, so L ends at 100. Ending at 200 would mean P and Q were
   applied in one pass. *)
let test_apply_order () =
  let z, v, p, q, n = (0, 1, 2, 3, 5) in
  let arrivals =
    [ (p, "L", 100, [ z; v ]); (v, "v", 1, [ z ]); (q, "L", 200, [ z; v ]); (z, "z", 2, []) ]
  in
  let update (writer, loc, numeric, deps) =
    let dep = Array.make n 0 in
    List.iter (fun w -> dep.(w) <- 1) deps;
    { Protocol.writer; useq = 1; dep; loc; numeric; tag = numeric; is_dec = false }
  in
  let shard_update (writer, loc, numeric, deps) =
    {
      Protocol.su_shard = 0;
      su_writer = writer;
      su_sseq = 1;
      su_sdep = List.map (fun w -> (w, 1)) deps;
      su_loc = loc;
      su_numeric = numeric;
      su_tag = numeric;
      su_is_dec = false;
    }
  in
  let group = [ z; v; p; q ] in
  let r = Replica.create (Engine.create ()) ~id:4 ~n ~groups:[ group ] () in
  let o = Rescan.create ~n ~groups:[ group ] () in
  let rs = Replica.create (Engine.create ()) ~id:4 ~n ~causal_delivery:false () in
  let os = Rescan.create ~n () in
  Replica.subscribe_shard rs ~shard:0 ();
  Rescan.subscribe_shard os ~shard:0 ();
  List.iter
    (fun a ->
      Replica.receive r (update a);
      Rescan.receive o (update a);
      Replica.shard_receive rs (shard_update a);
      Rescan.shard_receive os (shard_update a))
    arrivals;
  check_cell "rescan, main view" (100, 100) (Rescan.causal_read o "L");
  check_cell "rescan, group view" (100, 100) (Rescan.group_read o ~group "L");
  check_cell "rescan, shard" (100, 100) (Rescan.shard_read os ~shard:0 "L");
  check_cell "main view" (100, 100) (Replica.causal_read r "L");
  check_cell "group view" (100, 100) (Replica.group_read r ~group "L");
  check_cell "shard queue" (100, 100) (Replica.shard_read rs ~shard:0 "L")

(* ------------------------------------------------------------------ *)
(* Runtime-level runs                                                  *)
(* ------------------------------------------------------------------ *)

(* A run's fingerprint: every recorded operation with all its fields,
   then the value each process peeks at every location the history
   touches. *)
let fingerprint rt =
  let b = Buffer.create 4096 in
  let locs = Hashtbl.create 16 in
  Array.iter
    (fun (o : Op.t) ->
      Printf.bprintf b "%s inv=%d resp=%d sync=%d\n" (Op.to_string o) o.inv_seq
        o.resp_seq o.sync_seq;
      List.iter
        (Option.iter (fun (loc, _) -> Hashtbl.replace locs loc ()))
        [ Op.writes_value o; Op.reads_value o ])
    (History.ops (Runtime.history rt));
  let locs = List.sort compare (Hashtbl.fold (fun loc () acc -> loc :: acc) locs []) in
  List.iter
    (fun loc ->
      for proc = 0 to (Runtime.config rt).Config.procs - 1 do
        Printf.bprintf b "%s@%d=%d\n" loc proc (Runtime.peek rt ~proc loc)
      done)
    locs;
  Digest.to_hex (Digest.string (Buffer.contents b))

type wop =
  | W of string * int
  | R of string * Op.label
  | Dec of string
  | Locked of string * string * int

let free_locs = [| "a"; "b"; "c" |]
let counter_loc = "cnt"

(* guarded locations g0/g1 are only touched inside their lock's critical
   section, so the plan is valid under every propagation mode including
   entry consistency *)
let gen_plan rng ~procs ~rounds =
  Array.init procs (fun pid ->
      List.init rounds (fun round ->
          List.init
            (1 + Rng.int rng 3)
            (fun _ ->
              match Rng.int rng 10 with
              | 0 | 1 | 2 ->
                W (Rng.pick rng free_locs, (100 * pid) + Rng.int rng 50)
              | 3 | 4 ->
                R (Rng.pick rng free_locs, if Rng.bool rng then Op.Causal else Op.PRAM)
              | 5 when round > 0 -> Dec counter_loc
              | 6 | 7 ->
                let g = Rng.int rng 2 in
                Locked
                  (Printf.sprintf "lg%d" g, Printf.sprintf "g%d" g, Rng.int rng 90)
              | _ -> R (Rng.pick rng free_locs, Op.Causal))))

let run_plan ~seed ~propagation ~procs plan =
  let engine = Engine.create () in
  let cfg = { (Config.default ~procs) with record = true; propagation } in
  let latency = Latency.uniform (Rng.make seed) ~lo:5. ~hi:150. in
  let rt = Runtime.create engine ~latency cfg in
  for i = 0 to procs - 1 do
    Runtime.spawn_process rt i (fun p ->
        if i = 0 then Runtime.init_counter p counter_loc 1000;
        List.iter
          (fun round_ops ->
            List.iter
              (function
                | W (loc, v) -> Runtime.write p loc v
                | R (loc, label) -> ignore (Runtime.read p ~label loc)
                | Dec loc -> Runtime.decrement p loc ~amount:1
                | Locked (lock, gloc, v) ->
                  Runtime.write_lock p lock;
                  Runtime.write p gloc v;
                  ignore (Runtime.read p gloc);
                  Runtime.write_unlock p lock)
              round_ops;
            Runtime.barrier p)
          plan.(i))
  done;
  ignore (Runtime.run rt);
  rt

let plan_runs =
  List.concat_map
    (fun propagation ->
      List.init 5 (fun k ->
          let seed = k + 1 in
          ( Printf.sprintf "%s seed %d" (Config.propagation_to_string propagation) seed,
            fun () ->
              let rng = Rng.make (7000 + (100 * seed)) in
              let procs = 3 + Rng.int rng 2 in
              run_plan ~seed ~propagation ~procs (gen_plan rng ~procs ~rounds:3) )))
    [ Config.Eager; Config.Lazy; Config.Demand; Config.Entry ]

(* "mi" is written by i and read by i+1: one shard per location,
   subscribed by exactly that pair *)
let multicast_run () =
  let procs = 3 in
  let pl =
    Placement.create ~shards:procs
      ~policy:(Placement.Explicit (fun loc -> int_of_string (String.sub loc 1 1)))
      ()
  in
  for i = 0 to procs - 1 do
    Placement.subscribe pl ~node:i ~shard:i;
    Placement.subscribe pl ~node:((i + 1) mod procs) ~shard:i
  done;
  let engine = Engine.create () in
  let cfg =
    {
      (Config.default ~procs) with
      record = true;
      placement = Some pl;
      timestamped_updates = false;
    }
  in
  let latency = Latency.uniform (Rng.make 99) ~lo:5. ~hi:80. in
  let rt = Runtime.create engine ~latency cfg in
  for i = 0 to procs - 1 do
    Runtime.spawn_process rt i (fun p ->
        let mine = Printf.sprintf "m%d" i in
        for k = 1 to 4 do
          Runtime.write p mine ((10 * i) + k)
        done;
        Runtime.barrier p;
        ignore (Runtime.read p ~label:Op.PRAM (Printf.sprintf "m%d" ((i + 2) mod 3)));
        Runtime.barrier p)
  done;
  ignore (Runtime.run rt);
  rt

let app name ?(procs = 4) ?propagation ?placement f =
  ( name,
    fun () ->
      let engine = Engine.create () in
      let base = { (Config.default ~procs) with record = true } in
      let base =
        match propagation with Some p -> { base with propagation = p } | None -> base
      in
      let cfg =
        match placement with
        | Some pl -> { base with placement = Some pl; timestamped_updates = false }
        | None -> base
      in
      let latency = Latency.uniform (Rng.make 11) ~lo:5. ~hi:120. in
      let rt = Runtime.create engine ~latency cfg in
      let out = f (Api.spawn rt) in
      ignore (Runtime.run rt);
      check (name ^ ": result produced") true (!out <> None);
      rt )

let app_runs =
  let problem = Solver.Problem.generate ~seed:7 ~n:6 in
  let em_params = { Em.rows = 6; cols = 5; steps = 2; seed = 3 } in
  let m = Sparse.generate ~seed:5 ~n:6 ~density:0.4 in
  let pipe = { Pipeline.items = 8; slots = 2; work = 0.5 } in
  [
    app "solver barrier_pram" ~procs:4 (fun spawn ->
        Solver.launch ~spawn ~procs:4 ~variant:Solver.Barrier_pram problem);
    app "solver handshake_causal" ~procs:3 (fun spawn ->
        Solver.launch ~spawn ~procs:3 ~variant:Solver.Handshake_causal problem);
    app "em broadcast" ~procs:3 (fun spawn -> Em.launch ~spawn ~procs:3 em_params);
    app "em multicast" ~procs:3 ~placement:(Em.placement ~procs:3)
      (fun spawn -> Em.launch ~spawn ~procs:3 em_params);
    app "cholesky locks (lazy)" ~procs:3 (fun spawn ->
        Cholesky.launch ~spawn ~procs:3 ~variant:Cholesky.Lock_based m);
    app "cholesky locks (demand)" ~procs:3 ~propagation:Config.Demand (fun spawn ->
        Cholesky.launch ~spawn ~procs:3 ~variant:Cholesky.Lock_based m);
    app "cholesky counters" ~procs:3 (fun spawn ->
        Cholesky.launch ~spawn ~procs:3 ~variant:Cholesky.Counter_based m);
    app "pipeline awaits" ~procs:3 (fun spawn ->
        Pipeline.launch ~spawn ~procs:3 ~impl:Pipeline.Await_based pipe);
  ]

let write_heavy_program procs rt =
  for i = 0 to procs - 1 do
    Runtime.spawn_process rt i (fun p ->
        let mine = Printf.sprintf "w%d" i in
        for k = 1 to 20 do
          Runtime.write p mine k
        done;
        Runtime.barrier p;
        for j = 0 to procs - 1 do
          ignore (Runtime.read p (Printf.sprintf "w%d" j))
        done;
        Runtime.barrier p)
  done

let run_write_heavy ~batch_max () =
  let procs = 3 in
  let engine = Engine.create () in
  let cfg =
    { (Config.default ~procs) with record = true; batch_max; batch_window = 2.0 }
  in
  let latency = Latency.uniform (Rng.make 5) ~lo:10. ~hi:60. in
  let rt = Runtime.create engine ~latency cfg in
  write_heavy_program procs rt;
  ignore (Runtime.run rt);
  rt

let write_heavy_runs =
  [
    ("write-heavy unbatched", run_write_heavy ~batch_max:1);
    ("write-heavy batch_max 8", run_write_heavy ~batch_max:8);
  ]

(* ------------------------------------------------------------------ *)
(* Frozen digests                                                      *)
(* ------------------------------------------------------------------ *)

(* [fingerprint] of every run above, recorded with the rescan engine
   this one replaced running beside it: both engines produced these
   exact executions. *)
let frozen =
  [
    ("eager seed 1", "7ff0919620e78d58629b7ba30dc4ba4b");
    ("eager seed 2", "c76b597f2e48572232ae2aa529625caf");
    ("eager seed 3", "864f62da88f9818288ef2138a42c2c82");
    ("eager seed 4", "0c34b47d32fcd1ac547310ef6e2d5e12");
    ("eager seed 5", "be0b092ea9b6d54b963bcf64200ded27");
    ("lazy seed 1", "113b38aba05d747aace1e8ce6185e3eb");
    ("lazy seed 2", "794e8b5710f17a8f2128abc3495ce4f1");
    ("lazy seed 3", "f837c9e5023d603ae880f6659e5904b0");
    ("lazy seed 4", "8c17726dee68a195132ec1bff83c722c");
    ("lazy seed 5", "c83c2bb68e9e245bdc0ecdf46bf240cf");
    ("demand seed 1", "113b38aba05d747aace1e8ce6185e3eb");
    ("demand seed 2", "794e8b5710f17a8f2128abc3495ce4f1");
    ("demand seed 3", "f837c9e5023d603ae880f6659e5904b0");
    ("demand seed 4", "8c17726dee68a195132ec1bff83c722c");
    ("demand seed 5", "c83c2bb68e9e245bdc0ecdf46bf240cf");
    ("entry seed 1", "5029f92ae4289346603b29baa449b9a0");
    ("entry seed 2", "fff156ffb33d6832a2e68b33455ff439");
    ("entry seed 3", "81f55232469e75575fcb9d5a1b17544a");
    ("entry seed 4", "5382f5cc83d4abd56d4d4f119686ff00");
    ("entry seed 5", "543c26bdced4dfb98cb3b25c78be9ae3");
    ("multicast", "2cc03df6b667c9fa693da01dc1fea80c");
    ("solver barrier_pram", "172d79005eb4d23dc62569f899060f96");
    ("solver handshake_causal", "6e8a361ac6e85e80b33784105bbf0c8b");
    ("em broadcast", "afa8e3f8fc852c3222ab8f3e060db159");
    ("em multicast", "60e6be9762d57b7a440dac3c9fc80429");
    ("cholesky locks (lazy)", "800f3d13641284d83dd3c816a5fe2330");
    ("cholesky locks (demand)", "800f3d13641284d83dd3c816a5fe2330");
    ("cholesky counters", "f3194b58b95184fbf244f3c6be66ad29");
    ("pipeline awaits", "7b4bae30f331e45c592972ef6082f732");
    ("write-heavy unbatched", "618a5b3db10c1fdf59dc7a177e2ea430");
    ("write-heavy batch_max 8", "fc4778cc6d6ee3e25f8f66fd19e9e3ad");
  ]

let check_frozen runs =
  List.iter
    (fun (name, run) ->
      Alcotest.(check string)
        (name ^ ": history and memory")
        (List.assoc name frozen) (fingerprint (run ())))
    runs

let test_random_workloads () = check_frozen plan_runs
let test_multicast () = check_frozen [ ("multicast", multicast_run) ]
let test_apps () = check_frozen app_runs

(* ------------------------------------------------------------------ *)
(* Update batching                                                     *)
(* ------------------------------------------------------------------ *)

let update_seq_gen =
  QCheck.Gen.(
    int_range 2 5 >>= fun procs ->
    int_range 0 (procs - 1) >>= fun writer ->
    int_range 1 10 >>= fun start ->
    int_range 1 6 >>= fun len ->
    list_size (return len) (list_size (return procs) (int_bound 8)) >>= fun depss ->
    list_size (return len) (triple (int_bound 3) (int_bound 50) bool)
    >>= fun metas ->
    return
      (List.mapi
         (fun k (deps, (locn, num, is_dec)) ->
           let dep = Array.of_list deps in
           dep.(writer) <- start + k - 1;
           {
             Protocol.writer;
             useq = start + k;
             dep;
             loc = "l" ^ string_of_int locn;
             numeric = num;
             tag = (if is_dec then 0 else k + 1);
             is_dec;
           })
         (List.combine depss metas)))

let batch_roundtrip =
  QCheck.Test.make ~name:"encode_batch/decode_batch roundtrip" ~count:300
    (QCheck.make update_seq_gen) (fun us ->
      Protocol.decode_batch (Protocol.encode_batch us) = us)

let test_batch_encoding_directed () =
  Alcotest.check_raises "empty batch"
    (Invalid_argument "Protocol.encode_batch: empty batch") (fun () ->
      ignore (Protocol.encode_batch []));
  let u ~writer ~useq ~dep =
    { Protocol.writer; useq; dep; loc = "x"; numeric = 1; tag = useq; is_dec = false }
  in
  Alcotest.check_raises "mixed writers"
    (Invalid_argument "Protocol.encode_batch: mixed writers") (fun () ->
      ignore
        (Protocol.encode_batch
           [ u ~writer:0 ~useq:1 ~dep:[| 0; 0 |]; u ~writer:1 ~useq:2 ~dep:[| 0; 1 |] ]));
  Alcotest.check_raises "useq gap"
    (Invalid_argument "Protocol.encode_batch: non-consecutive useq") (fun () ->
      ignore
        (Protocol.encode_batch
           [ u ~writer:0 ~useq:1 ~dep:[| 0; 0 |]; u ~writer:0 ~useq:3 ~dep:[| 2; 0 |] ]));
  (* three updates whose clocks change by one entry between neighbours:
     two transmitted delta entries in total, the writer's own entry never
     transmitted *)
  let b =
    Protocol.encode_batch
      [
        u ~writer:0 ~useq:4 ~dep:[| 3; 1; 0 |];
        u ~writer:0 ~useq:5 ~dep:[| 4; 2; 0 |];
        u ~writer:0 ~useq:6 ~dep:[| 5; 2; 7 |];
      ]
  in
  check_int "length" 3 (Protocol.batch_length b);
  check_int "delta entries" 2 (Protocol.batch_delta_entries b)

let test_batching_preserves_semantics () =
  check_frozen write_heavy_runs;
  let rt1 = run_write_heavy ~batch_max:1 () in
  let rt8 = run_write_heavy ~batch_max:8 () in
  for proc = 0 to 2 do
    for j = 0 to 2 do
      let loc = Printf.sprintf "w%d" j in
      check_int
        (Printf.sprintf "final %s at %d" loc proc)
        (Runtime.peek rt1 ~proc loc)
        (Runtime.peek rt8 ~proc loc)
    done
  done;
  check "unbatched run mixed consistent" true
    (Lattice.is_consistent (Runtime.history rt1) Lattice.Mixed);
  check "batched run mixed consistent" true
    (Lattice.is_consistent (Runtime.history rt8) Lattice.Mixed);
  let msgs rt = Network.messages_sent (Runtime.network rt) in
  let bytes rt = Network.bytes_sent (Runtime.network rt) in
  check "batching sends fewer messages" true (msgs rt8 < msgs rt1);
  check "batching sends fewer bytes" true (bytes rt8 < bytes rt1)

let test_batch_window_flush () =
  (* no synchronization ever forces a flush here: only the window timer
     can get the buffered write onto the wire *)
  let engine = Engine.create () in
  let cfg = { (Config.default ~procs:2) with batch_max = 64; batch_window = 5.0 } in
  let rt = Runtime.create engine cfg in
  Runtime.spawn_process rt 0 (fun p -> Runtime.write p "x" 7);
  Runtime.spawn_process rt 1 (fun p -> Runtime.await p "x" 7);
  ignore (Runtime.run rt);
  check_int "delivered by window flush" 7 (Runtime.peek rt ~proc:1 "x")

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "delivery"
    [
      ( "differential",
        [
          Alcotest.test_case "replica stream equivalence" `Quick
            test_replica_stream_differential;
          Alcotest.test_case "shard stream equivalence" `Quick
            test_shard_stream_differential;
          Alcotest.test_case "apply order is (pass, arrival)" `Quick test_apply_order;
          Alcotest.test_case "random workloads, all modes" `Quick test_random_workloads;
          Alcotest.test_case "multicast routing" `Quick test_multicast;
          Alcotest.test_case "section-5 applications" `Quick test_apps;
        ] );
      ( "batching",
        [
          qt batch_roundtrip;
          Alcotest.test_case "encoding directed" `Quick test_batch_encoding_directed;
          Alcotest.test_case "semantics preserved" `Quick
            test_batching_preserves_semantics;
          Alcotest.test_case "window flush" `Quick test_batch_window_flush;
        ] );
    ]
