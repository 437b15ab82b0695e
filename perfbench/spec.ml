(* What the benchmark reports: the workloads, the end-to-end metrics of
   the untraced runs and the per-layer metrics of the traced run. The
   names and units here are the ones BENCHMARK.json lists (a test checks
   that the two agree); the design notes that BENCHMARK.json has no
   field for — each workload's mcdsm equivalent, each per-layer metric's
   target end-to-end metric and workloads — live here and are printed
   by [main.exe --describe]. *)

type better = Lower | Higher

type metric = {
  name : string;
  unit : string;
  better : better;
  bound : float option;  (** end-to-end metrics only *)
  moves : string list;  (** per-layer: end-to-end metrics it should move *)
  on : string list;  (** per-layer: workloads where it should move *)
}

(* the seed a claim is developed on, and the one held back to check it *)
let default_seed = 42
let held_back_seed = 4242

type workload_doc = { w_name : string; mcdsm : string; reason : string }

let workloads =
  [
    {
      w_name = "solver-online";
      mcdsm = "mcdsm solver --variant handshake --check-online -n 96 -w 8";
      reason =
        "Recorder, Stream and Online take ~90% of run_s, so a checker change \
         shows here and a simulator change is diluted";
    };
    {
      w_name = "cholesky-locks";
      mcdsm = "mcdsm cholesky --variant lock -n 96 --density 0.2";
      reason =
        "the simulator alone (Engine, Network broadcast, Replica causal \
         delivery, Lock_manager); a checker change must not move it";
    };
    {
      w_name = "shard-1000";
      mcdsm = "bench/main.exe --exp shard, top point";
      reason =
        "1000 procs, 100k objects, range placement: the only user of \
         Placement, shard receive and fetches; O(procs^2) set-up";
    };
    {
      w_name = "check-offline";
      mcdsm = "mcdsm cholesky -n 20 --check --model sc";
      reason =
        "Lattice.failures at Mixed and SC plus Analysis lint: the costliest \
         code per op, superlinear in history length";
    };
  ]

(* BENCHMARK.json's one-line reason for a workload *)
let why w = w.mcdsm ^ ": " ^ w.reason

let e2e name unit better bound =
  { name; unit; better; bound = Some bound; moves = []; on = [] }

let end_to_end =
  [
    e2e "setup_s" "s" Lower 0.25;
    e2e "run_s" "s" Lower 0.25;
    e2e "ops_per_s" "1/s" Higher 0.25;
    e2e "peak_heap_mb" "MB" Lower 0.1;
    e2e "sim_time_us" "us" Lower 0.2;
    e2e "messages" "count" Lower 0.05;
    e2e "bytes" "B" Lower 0.05;
  ]

let solver = "solver-online"
let cholesky = "cholesky-locks"
let shard = "shard-1000"
let offline = "check-offline"

let layer ?(better = Lower) name unit ~moves ~on =
  { name; unit; better; bound = None; moves; on }

(* message kinds and op kinds that occur on at least one workload *)
let message_kinds =
  [
    "update"; "lock_request"; "lock_grant"; "unlock"; "barrier_arrive";
    "barrier_release"; "shard_update"; "fetch_request"; "fetch_reply";
  ]

let op_kinds =
  [
    "read"; "write"; "decrement"; "init_counter"; "write_lock";
    "write_unlock"; "barrier"; "await"; "compute"; "fetch";
  ]

let timed_ops = [ "read"; "write"; "decrement" ]

let per_layer =
  let sim_ops = [ solver; cholesky; shard ] in
  [
    layer "apps.generate_s" "s" ~moves:[ "setup_s" ] ~on:[ cholesky; offline ];
    layer "apps.compute_s" "s" ~moves:[ "run_s" ] ~on:[ cholesky; offline ];
    layer "placement.build_s" "s" ~moves:[ "setup_s" ] ~on:[ shard ];
    layer "runtime.create_s" "s" ~moves:[ "setup_s" ] ~on:[ shard ];
    layer "runtime.spawn_s" "s" ~moves:[ "setup_s" ] ~on:[ shard ];
    layer "runtime.run_s" "s" ~moves:[ "run_s"; "setup_s" ]
      ~on:(sim_ops @ [ offline ]);
  ]
  @ List.map
      (fun op ->
        layer ("runtime.self_s." ^ op) "s" ~moves:[ "ops_per_s"; "run_s" ]
          ~on:sim_ops)
      timed_ops
  @ [
      layer "runtime.self_s.sync" "s" ~moves:[ "ops_per_s"; "run_s" ]
        ~on:[ cholesky; shard ];
    ]
  @ List.map
      (fun op ->
        layer ("runtime.ns_per." ^ op) "ns" ~moves:[ "ops_per_s"; "run_s" ]
          ~on:sim_ops)
      timed_ops
  @ List.map
      (fun op ->
        layer ("runtime.ops." ^ op) "count" ~moves:[ "ops_per_s"; "run_s" ]
          ~on:sim_ops)
      op_kinds
  @ [
      layer "runtime.blocking_calls" "count" ~moves:[ "sim_time_us" ]
        ~on:[ cholesky; shard ];
      layer "runtime.other_s" "s" ~moves:[ "ops_per_s"; "run_s" ] ~on:sim_ops;
      layer "engine.events" "count" ~moves:[ "ops_per_s" ] ~on:[ cholesky; shard ];
      layer "engine.ns_per_event" "ns" ~moves:[ "ops_per_s" ]
        ~on:[ cholesky; shard ];
    ]
  @ List.concat_map
      (fun k ->
        [
          layer ("network.msgs." ^ k) "count" ~moves:[ "messages" ]
            ~on:[ cholesky; shard ];
          layer ("network.bytes." ^ k) "B" ~moves:[ "bytes" ]
            ~on:[ cholesky; shard ];
        ])
      message_kinds
  @ [
      layer "network.msgs_per_write" "ratio" ~moves:[ "messages"; "bytes" ]
        ~on:[ cholesky; shard ];
      layer "network.latency_mean_us" "us" ~moves:[ "sim_time_us" ]
        ~on:[ cholesky; shard ];
      layer "replica.replay_s" "s" ~moves:[ "ops_per_s" ] ~on:[ cholesky; shard ];
      layer "replica.updates" "count" ~moves:[ "ops_per_s" ]
        ~on:[ cholesky; shard ];
      layer "replica.ns_per_update" "ns" ~moves:[ "ops_per_s" ]
        ~on:[ cholesky; shard ];
      layer "lock.wait_mean_us" "us" ~moves:[ "sim_time_us" ] ~on:[ cholesky ];
      layer "lock.wait_max_us" "us" ~moves:[ "sim_time_us" ] ~on:[ cholesky ];
      layer "barrier.wait_mean_us" "us" ~moves:[ "sim_time_us" ]
        ~on:[ cholesky; shard ];
      layer "barrier.wait_max_us" "us" ~moves:[ "sim_time_us" ]
        ~on:[ cholesky; shard ];
      layer "await.wait_mean_us" "us" ~moves:[ "sim_time_us" ]
        ~on:[ solver; cholesky ];
      layer "runtime.fetches" "count" ~moves:[ "sim_time_us"; "messages" ]
        ~on:[ shard ];
      layer "runtime.fetch_ratio" "ratio" ~moves:[ "sim_time_us"; "messages" ]
        ~on:[ shard ];
      layer "fetch.wait_mean_us" "us" ~moves:[ "sim_time_us" ] ~on:[ shard ];
      layer "runtime.resident_max" "count" ~moves:[ "peak_heap_mb" ]
        ~on:[ shard ];
      layer "history.materialize_s" "s" ~moves:[ "setup_s" ] ~on:[ offline ];
      layer "history.stream_s" "s" ~moves:[ "ops_per_s" ] ~on:[ solver ];
      layer "history.ops" "count" ~moves:[ "ops_per_s"; "setup_s" ]
        ~on:[ solver; offline ];
      layer "online.check_s" "s" ~moves:[ "run_s"; "ops_per_s" ] ~on:[ solver ];
      layer "online.replay_s" "s" ~moves:[ "run_s"; "ops_per_s" ] ~on:[ solver ];
      layer "online.reads_checked" "count" ~moves:[ "run_s" ] ~on:[ solver ];
      layer "online.chains" "count" ~moves:[ "run_s"; "peak_heap_mb" ]
        ~on:[ solver ];
      layer "online.max_resident" "count" ~moves:[ "peak_heap_mb" ]
        ~on:[ solver ];
      layer "online.live_summaries" "count" ~moves:[ "peak_heap_mb" ]
        ~on:[ solver ];
      layer "online.failures" "count" ~moves:[] ~on:[ solver ];
      layer "lattice.mixed_s" "s" ~moves:[ "run_s"; "ops_per_s" ] ~on:[ offline ];
      layer "lattice.sc_s" "s" ~moves:[ "run_s"; "ops_per_s" ] ~on:[ offline ];
      layer "lattice.failures" "count" ~moves:[] ~on:[ offline ];
      layer "analysis.lint_s" "s" ~moves:[ "run_s"; "ops_per_s" ] ~on:[ offline ];
      layer "analysis.errors" "count" ~moves:[] ~on:[ offline ];
      layer ~better:Higher "trace.run_coverage" "ratio" ~moves:[] ~on:[];
      layer ~better:Higher "trace.setup_coverage" "ratio" ~moves:[] ~on:[];
      layer "trace.overhead" "ratio" ~moves:[] ~on:[];
      layer "trace.setup_overhead" "ratio" ~moves:[] ~on:[];
    ]

let unit_of name =
  match List.find_opt (fun m -> m.name = name) (end_to_end @ per_layer) with
  | Some m -> m.unit
  | None -> invalid_arg ("Spec.unit_of: unknown metric " ^ name)

let better_to_string = function Lower -> "lower" | Higher -> "higher"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b
let json_list f xs = "[" ^ String.concat ", " (List.map f xs) ^ "]"

(* the design record printed by [main.exe --describe] *)
let describe () =
  let workload w =
    Printf.sprintf "{\"name\": %s, \"mcdsm\": %s, \"why\": %s}"
      (json_string w.w_name) (json_string w.mcdsm) (json_string w.reason)
  in
  let metric m =
    Printf.sprintf
      "{\"name\": %s, \"unit\": %s, \"better\": %s%s, \"moves\": %s, \"on\": %s}"
      (json_string m.name) (json_string m.unit)
      (json_string (better_to_string m.better))
      (match m.bound with
      | Some b -> Printf.sprintf ", \"bound\": %g" b
      | None -> "")
      (json_list json_string m.moves)
      (json_list json_string m.on)
  in
  Printf.sprintf
    "{\"default_seed\": %d, \"held_back_seed\": %d,\n\
    \ \"workloads\": %s,\n\
    \ \"end_to_end\": %s,\n\
    \ \"per_layer\": %s}"
    default_seed held_back_seed
    (json_list workload workloads)
    (json_list metric end_to_end)
    (json_list metric per_layer)
