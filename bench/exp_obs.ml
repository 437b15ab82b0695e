(* EXP-OBS: overhead of the observability layer *)

open Harness

let mode = col "mode"
let mode_key = field "mode"
let wall = col "wall (s)" ~key:"wall_s"
let off_vs_ref = field "off_vs_ref"
let sim = col "sim time"
let sim_key = field "sim_time"
let overhead = col "overhead"
let overhead_key = field "overhead"
let series = col "series"
let spans = col "spans" ~key:"spans"
let events = field "events"
let pending = hidden ()

(* Host time of the EXP-DELIVERY batching workload under three
   instrumentation levels, min of [reps] after a warmup. [observe =
   false] is the acceptance gate: the base op counters and wait
   histograms (the [wait_summaries] API) run unconditionally, so the off
   column must stay within noise of the EXP-DELIVERY runtime.
   Observation must not perturb virtual time, so the claims require the
   sim times equal. *)
let run ~quick =
  let procs = 4 in
  let writes = if quick then 50 else 200 in
  let reps = if quick then 3 else 5 in
  let batching ?observe ?tracer () =
    Exp_delivery.batching_runtime ?observe ?tracer ~procs ~batch_max:8 ~writes ()
  in
  (* each rep builds a fresh runtime (and tracer, when traced); the last
     runtime is kept for metric/tracer inspection *)
  let observed ?tracer observe =
    let (rt, sim), t =
      time_after ~reps
        (fun () -> batching ~observe ?tracer:(Option.map (fun f -> f ()) tracer) ())
        (fun rt -> (rt, Runtime.run rt))
    in
    (rt, sim, t)
  in
  (* one untimed warmup so the off baseline doesn't absorb first-run
     allocation/page-in cost *)
  ignore (Runtime.run (batching ~observe:false ()));
  (* the reference: the EXP-DELIVERY batching entry point, creation
     included, with no observe/tracer fields passed *)
  let _, t_ref = time ~reps (fun () -> Runtime.run (batching ())) in
  let _, sim_off, t_off = observed false in
  let rt_m, sim_m, t_m = observed true in
  let rt_t, sim_t, t_t =
    observed ~tracer:(fun () -> Obs_trace.create ~capacity:65536 ()) true
  in
  let change t = Change ((t /. t_off) -. 1.0) in
  let series_of rt = Int (Metrics.Registry.series_count (Runtime.metrics rt)) in
  let tr = Option.get (Runtime.tracer rt_t) in
  let runtime =
    table
      ~title:
        (Printf.sprintf
           "EXP-OBS: observability overhead, %d procs x %d writes (batch_max 8, min of %d)"
           procs writes reps)
      [ mode; mode_key; wall; off_vs_ref; sim; sim_key; overhead; overhead_key; series; spans;
        events ]
      [ row
          [ mode, Text "exp-delivery"; mode_key, Text "exp_delivery_ref"; wall, Seconds t_ref;
            off_vs_ref, Change ((t_off /. t_ref) -. 1.0); sim, Float sim_off;
            overhead, change t_ref; series, Blank "-"; spans, Blank "-" ];
        row
          [ mode, Text "observe=off"; mode_key, Text "off"; wall, Seconds t_off;
            sim, Float sim_off; sim_key, Float sim_off; overhead, Blank "baseline";
            series, Blank "-"; spans, Blank "-" ];
        row
          [ mode, Text "metrics"; mode_key, Text "metrics"; wall, Seconds t_m; sim, Float sim_m;
            sim_key, Float sim_m; overhead, change t_m; overhead_key, change t_m;
            series, series_of rt_m; spans, Blank "-" ];
        row
          [ mode, Text "metrics+trace"; mode_key, Text "metrics_trace"; wall, Seconds t_t;
            sim, Float sim_t; sim_key, Float sim_t; overhead, change t_t;
            overhead_key, change t_t; series, series_of rt_t;
            spans, Int (Obs_trace.span_count tr); events, Int (Obs_trace.event_count tr) ] ]
  in
  (* drain microbench: the raw delivery hot path with and without an
     attached registry — isolates the per-update cost of the delivery
     histogram, arrival stamping and the queue-depth gauge *)
  let p = 4 in
  let depth = if quick then 500 else 2_000 in
  let updates = Exp_delivery.drain_workload ~p ~depth in
  let left_bare, d_bare = Exp_delivery.drain ~reps ~p updates in
  let left_obs, d_obs = Exp_delivery.drain ~observed:true ~reps ~p updates in
  let d_change = Change ((d_obs /. d_bare) -. 1.0) in
  let drain =
    table
      ~title:
        (Printf.sprintf "EXP-OBS/drain: %d updates x %d writers, bare vs observed" depth (p - 1))
      [ mode; wall; overhead; pending ]
      [ row [ mode, Text "bare"; wall, Seconds d_bare; overhead, Blank "baseline"; pending, Int left_bare ];
        row [ mode, Text "observed"; wall, Seconds d_obs; overhead, d_change; pending, Int left_obs ] ]
  in
  {
    tables = [ runtime; drain ];
    note =
      "the base op counters and wait histograms replace the seed's cached Stats\n\
       handles at identical cost, so observe=off tracks the PR 4 runtime; observe=on\n\
       adds delivery/staleness/engine/network series and the tracer appends one ring\n\
       slot per recorded op. Full metric dump: BENCH_CORE.json (observability key).";
    json =
      [ "params",
        Fields
          [ "procs", Int procs; "writes", Int writes; "reps", Int reps; "drain_depth", Int depth ];
        "runtime", Rows runtime;
        "drain", Fields [ "bare_s", Seconds d_bare; "observed_s", Seconds d_obs; "overhead", d_change ];
        "observability", Cell (Raw (Metrics.Registry.to_json (Runtime.metrics rt_m))) ];
  }

let claims =
  [
    claim "observation leaves sim time unchanged" (same sim);
    claim "every buffered update is applied, observed or not" (fun rows ->
        List.for_all (fun r -> num r pending = 0.) (having pending rows));
  ]

let t = { id = "obs"; name = "EXP-OBS"; run; claims }
