(* EXP-SHARD: partial replication vs full replication *)

open Harness

(* Symmetric neighbour-exchange workload over [objects] locations in
   [procs] range shards (shard i = process i's slice of the namespace).
   Per round each process writes [writes] slots of its own range,
   crosses a barrier, then reads the same slots from two foreign
   ranges — its subscribed neighbour i+1 (a local read under placement)
   and process i+2 (a non-subscribed shard, i.e. a read-miss fetch) —
   and crosses a second barrier. The full-replication side runs the
   identical program without a placement: every update is broadcast, and
   its vector-timestamp barrier waits for exactly the updates a count
   vector would count, so the comparison isolates placement. The same
   grid-point workload drives EXP-OBS-SHARD. *)

let loc id = "s:" ^ string_of_int id
let value ~procs ~proc ~slot = (slot * procs) + proc + 1
let slot_of ~per ~proc ~slot = (proc * per) + (slot mod per)

(* the checksum every process's reads must add up to *)
let expected ~procs ~writes ~rounds ~reads =
  let sum = ref 0 in
  for i = 0 to procs - 1 do
    for r = 0 to rounds - 1 do
      for k = 0 to reads - 1 do
        let slot = (r * writes) + k in
        sum := !sum + value ~procs ~proc:((i + 1) mod procs) ~slot;
        sum := !sum + value ~procs ~proc:((i + 2) mod procs) ~slot
      done
    done
  done;
  !sum

let workload ~procs ~writes ~rounds ~reads ~per checksum spawn =
  for i = 0 to procs - 1 do
    spawn i (fun (api : Api.t) ->
        for r = 0 to rounds - 1 do
          for k = 0 to writes - 1 do
            let slot = (r * writes) + k in
            api.write (loc (slot_of ~per ~proc:i ~slot)) (value ~procs ~proc:i ~slot)
          done;
          api.barrier ();
          for k = 0 to reads - 1 do
            let slot = (r * writes) + k in
            let read j = api.read ~label:Op.PRAM (loc (slot_of ~per ~proc:((i + j) mod procs) ~slot)) in
            let near = read 1 in
            let far = read 2 in
            checksum := !checksum + near + far
          done;
          api.barrier ()
        done)
  done

(* one shard per process; each node subscribes its own shard and its
   clockwise neighbour's, so near reads are local and far reads fetch *)
let placement ~procs ~objects =
  let pl = Placement.create ~shards:procs ~policy:(Placement.Range { objects }) () in
  for i = 0 to procs - 1 do
    Placement.subscribe pl ~node:i ~shard:i;
    Placement.subscribe pl ~node:i ~shard:((i + 1) mod procs)
  done;
  pl

(* the grid point's run, sharded or not: the runtime, its stats, and
   whether the reads added up to the expected checksum *)
let run_point ?observe ?tracer ~sharded (procs, objects, writes, rounds) =
  let reads = writes in
  let per = (objects + procs - 1) / procs in
  let checksum = ref 0 in
  let (), s =
    run_mixed ~procs ~timestamped:false
      ?placement:(if sharded then Some (placement ~procs ~objects) else None)
      ?observe ?tracer
      (workload ~procs ~writes ~rounds ~reads ~per checksum)
  in
  (Option.get s.runtime, s, !checksum = expected ~procs ~writes ~rounds ~reads)

let procs_c = col "procs" ~key:"procs"
let objects_c = col "objects" ~key:"objects"
let writes_c = field "writes"
let rounds_c = field "rounds"
let mode = col "mode"
let mode_key = field "mode"
let exact = col "exact" ~key:"exact"
let sim = col "sim time" ~key:"sim_time"
let msgs = col "msgs" ~key:"messages"
let upd = field "update_messages"
let bytes = field "bytes"
let per_update = col "upd msgs/update" ~key:"msgs_per_update" ~json_digits:3
let resident_max = col "resident max" ~key:"resident_max"
let resident_mean = field "resident_mean" ~json_digits:2
let fetches = col "fetches" ~key:"fetches"

let run ~quick =
  (* (procs, objects, writes per proc per round, rounds) *)
  let grid =
    if quick then [ (4, 400, 2, 2); (8, 800, 2, 2) ]
    else [ (8, 800, 2, 2); (40, 4_000, 2, 2); (200, 20_000, 2, 2); (1_000, 100_000, 2, 1) ]
  in
  let point ((procs, objects, writes, rounds) as p) =
    let updates = procs * writes * rounds in
    let side ~sharded name key =
      let rt, s, ok = run_point ~sharded p in
      let upd_msgs =
        List.fold_left
          (fun acc (kind, n) ->
            match kind with "update" | "shard_update" -> acc + n | _ -> acc)
          0
          (Network.messages_by_kind (Runtime.network rt))
      in
      let resident = List.init procs (fun i -> Runtime.resident_objects rt ~proc:i) in
      let rmax = List.fold_left max 0 resident in
      ( (s, upd_msgs, rmax),
        row
          [ procs_c, Int procs; objects_c, Int objects; writes_c, Int writes;
            rounds_c, Int rounds; mode, Text name; mode_key, Text key; exact, Flag ok;
            sim, Float s.time; msgs, Int s.messages; upd, Int upd_msgs; bytes, Int s.bytes;
            per_update, Ratio (float_of_int upd_msgs /. float_of_int updates);
            resident_max, Int rmax;
            resident_mean,
              Float (float_of_int (List.fold_left ( + ) 0 resident) /. float_of_int procs);
            fetches, Int (Runtime.fetch_count rt) ] )
    in
    let (s_f, upd_f, rmax_f), full = side ~sharded:false "full replication" "full" in
    let (s_s, upd_s, rmax_s), sharded = side ~sharded:true "sharded placement" "sharded" in
    let ratio a b = Ratio (float_of_int a /. float_of_int b) in
    [ full; sharded;
      derived
        [ mode, Text "-> reduction"; sim, Ratio (s_f.time /. s_s.time);
          msgs, ratio s_f.messages s_s.messages; per_update, ratio upd_f upd_s;
          resident_max, ratio rmax_f rmax_s ] ]
  in
  let runs =
    table ~title:"EXP-SHARD: sharded partial replication vs full replication (Sec. 6)"
      [ procs_c; objects_c; writes_c; rounds_c; mode; mode_key; exact; sim; msgs; upd; bytes;
        per_update; resident_max; resident_mean; fetches ]
      (List.concat_map point grid)
  in
  {
    tables = [ runs ];
    note =
      "paper (Sec. 6): broadcast-per-update \"may be avoided by making optimizations\n\
       based on the patterns of accesses to shared variables\"; with range placement\n\
       each update reaches only its shard's subscriber tree and each replica holds\n\
       only its subscribed slice, so message volume per update and resident state\n\
       per replica drop superlinearly as processes x objects grow, while read\n\
       misses fall back to demand fetches from the shard home.";
    json =
      [ "params",
        Fields
          [ "points", Int (List.length grid); "reads_eq_writes", Flag true;
            "seed", Int bench_seed ];
        "runs", Rows runs ];
  }

let claims =
  let pairs = pairwise mode "full replication" "sharded placement" in
  [
    claim ~section:"Sec. 6" "every checksum is exact" (every exact);
    claim ~section:"Sec. 6"
      "placement sends one update message per write, holds fewer objects per replica and \
       never sends more messages in total"
      (fun rows ->
        pairs rows (fun f s ->
            num s per_update = 1. && num s resident_max < num f resident_max
            && num s msgs <= num f msgs));
  ]

let t = { id = "shard"; name = "EXP-SHARD"; run; claims }
