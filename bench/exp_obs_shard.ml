(* EXP-OBS-SHARD: cost of the shard-aware flight recorder at the
   EXP-SHARD top point. Four configurations of the same sharded run:
   the plain EXP-SHARD entry point (nothing passed), observe=off
   explicitly (the always-compiled option checks on the shard hot paths
   must stay in the noise — gate: < 2%), metrics, and metrics+trace. *)

open Harness

let mode = col "mode"
let mode_key = field "mode"
let wall = col "wall (s)" ~key:"wall_s"
let sim = col "sim time" ~key:"sim_time"
let overhead = col "overhead"
let off_overhead = field "off_overhead"
let gate_pass = field "gate_pass"
let overhead_key = field "overhead"
let series = col "series" ~key:"series"
let spans = field "spans"
let events = col "events" ~key:"events"
let dropped = field "dropped"
let exact = hidden ()

let run ~quick =
  let ((procs, objects, writes, rounds) as point) =
    if quick then (40, 4_000, 2, 2) else (1_000, 100_000, 2, 1)
  in
  let reps = if quick then 2 else 3 in
  (* host time of the whole sharded run, creation included, min of
     [reps]; each rep gets a fresh tracer, made untimed *)
  let run ?observe ?tracer () =
    let (rt, s, ok), t =
      time_after ~reps
        (fun () -> Option.map (fun f -> f ()) tracer)
        (fun tracer -> Exp_shard.run_point ?observe ?tracer ~sharded:true point)
    in
    (rt, s.time, ok, t)
  in
  ignore (Exp_shard.run_point ~sharded:true point);
  (* warmup *)
  let _, sim_ref, ok_ref, t_ref = run () in
  let _, sim_off, ok_off, t_off = run ~observe:false () in
  let rt_m, sim_m, ok_m, t_m = run ~observe:true () in
  let rt_t, sim_t, ok_t, t_t =
    run ~observe:true ~tracer:(fun () -> Obs_trace.create ~capacity:(1 lsl 18) ()) ()
  in
  let change t = Change ((t /. t_off) -. 1.0) in
  let off_change = (t_off /. t_ref) -. 1.0 in
  let series_of rt = Int (Metrics.Registry.series_count (Runtime.metrics rt)) in
  let tr = Option.get (Runtime.tracer rt_t) in
  let runs =
    table
      ~title:
        (Printf.sprintf
           "EXP-OBS-SHARD: flight-recorder overhead, sharded %d procs x %d objects (min of %d)"
           procs objects reps)
      [ mode; mode_key; wall; sim; overhead; off_overhead; gate_pass; overhead_key; series;
        spans; events; dropped; exact ]
      [ row
          [ mode, Text "exp-shard ref"; mode_key, Text "exp_shard_ref"; wall, Seconds t_ref;
            sim, Float sim_ref; overhead, change t_ref; series, Blank "-"; events, Blank "-";
            exact, Flag ok_ref ];
        row
          [ mode, Text "observe=off"; mode_key, Text "off"; wall, Seconds t_off;
            sim, Float sim_off; overhead, Blank "baseline"; off_overhead, Change off_change;
            gate_pass, Flag (off_change < 0.02); series, Blank "-"; events, Blank "-";
            exact, Flag ok_off ];
        row
          [ mode, Text "metrics"; mode_key, Text "metrics"; wall, Seconds t_m; sim, Float sim_m;
            overhead, change t_m; overhead_key, change t_m; series, series_of rt_m;
            events, Blank "-"; exact, Flag ok_m ];
        row
          [ mode, Text "metrics+trace"; mode_key, Text "metrics_trace"; wall, Seconds t_t;
            sim, Float sim_t; overhead, change t_t; overhead_key, change t_t;
            series, series_of rt_t; spans, Int (Obs_trace.span_count tr);
            events, Int (Obs_trace.event_count tr); dropped, Int (Obs_trace.dropped tr);
            exact, Flag ok_t ] ]
  in
  {
    tables = [ runs ];
    note =
      Printf.sprintf
        "acceptance gate: observe=off vs exp-shard entry point %+.1f%% (< 2%% required)\n\
         the flight recorder hangs off the shard hot paths behind option checks that\n\
         compile to a load-and-branch when nothing is attached, so observe=off stays\n\
         at the EXP-SHARD entry-point cost; metrics mode adds per-shard labelled\n\
         series (cardinality O(procs + shards), memoized handles) and tracing adds\n\
         one ring append per hop, apply, fetch and op."
        (100.0 *. off_change);
    json =
      [ "params",
        Fields
          [ "procs", Int procs; "objects", Int objects; "writes", Int writes;
            "rounds", Int rounds; "reps", Int reps ];
        "runs", Rows runs ];
  }

let claims =
  [
    claim "every mode's checksum is exact" (every exact);
    claim "observation leaves sim time unchanged in all four modes" (same sim);
  ]

let t = { id = "obs-shard"; name = "EXP-OBS-SHARD"; run; claims }
