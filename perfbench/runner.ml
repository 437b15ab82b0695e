(* One benchmark run of one workload: the untraced run that gives the
   end-to-end metrics, or the traced run that gives the per-layer ones.
   Both check every iteration's outputs and count failed operations. *)

module W = Workloads

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;  (** in [Spec] order *)
}

let log fmt = Printf.ksprintf prerr_endline fmt
let seconds_of_ns = Layers.seconds_of_ns
let elapsed_s t0 = seconds_of_ns (Spans.now () - t0)

(* Failure accounting across the iterations of a run. Simulated results
   are exact for a seed, so every iteration of one configuration must
   reproduce the first one's. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;
  mutable sim : W.sim option;
}

let tally () = { attempted = 0; failed = 0; problems = []; sim = None }

let problem t msg = if not (List.mem msg t.problems) then t.problems <- msg :: t.problems

let account ?(compare_sim = true) t (inst : W.instance) =
  let o = inst.W.check () in
  t.attempted <- t.attempted + o.W.ops;
  t.failed <- t.failed + o.W.failed;
  List.iter (problem t) o.W.errors;
  (if compare_sim then
     let sim = W.sim_of inst.W.rt in
     match t.sim with
     | None -> t.sim <- Some sim
     | Some s when s = sim -> ()
     | Some _ -> problem t "simulated results differ between runs of one seed");
  o

let correct t = t.failed = 0 && t.problems = []

(* One iteration: set-up (inputs, placement, runtime, fibers), then the
   timed phase. Returns the instance and the timed phase's host time. *)
let iteration (w : W.t) probe ~seed ~mode =
  let inst = w.W.setup probe ~seed ~mode in
  let t0 = Spans.now () in
  inst.W.run ();
  (inst, elapsed_s t0)

(* One set-up sample. A set-up of at least [alone_s] is timed alone,
   from a collected heap, as it runs in a fresh process; shorter ones are
   timed in batches of [k] that fill [batch_s], the sample being the
   batch's mean, so that sub-millisecond set-ups repeat like the others.
   [alone_s] sits far from every workload's set-up time, so [k] does not
   flip between runs. Samples are taken between the timed iterations, so
   set-up and run times see the same host conditions. *)
let alone_s = 0.01
let batch_s = 0.1

let batch_size (w : W.t) ~seed =
  Gc.full_major ();
  let t0 = Spans.now () in
  ignore (w.W.setup W.plain ~seed ~mode:W.Timed);
  let t = elapsed_s t0 in
  if t >= alone_s then 1 else max 1 (int_of_float (batch_s /. t))

let setup_sample (w : W.t) ~seed ~k =
  let t0 = Spans.now () in
  for _ = 1 to k do
    ignore (w.W.setup W.plain ~seed ~mode:W.Timed)
  done;
  elapsed_s t0 /. float_of_int k

(* Repeat [f] until [seconds] have passed and it ran [min_iters] times;
   each call starts from a collected heap, after [before] has dropped
   whatever the caller kept of the previous call. *)
let repeat ?(before = ignore) ~seconds ~min_iters f =
  let start = Spans.now () in
  let rec go n acc =
    if n >= min_iters && elapsed_s start >= seconds then List.rev acc
    else begin
      before ();
      Gc.full_major ();
      go (n + 1) (f () :: acc)
    end
  in
  go 0 []

(* The timed loop: per iteration one set-up sample, then a fresh set-up
   and its timed phase, each from a collected heap. Returns (setup_s,
   run_s, ops_per_s) samples. *)
let timed_iterations t (w : W.t) ~seed ~k ~seconds ~min_iters =
  repeat ~seconds ~min_iters (fun () ->
      let setup_s = setup_sample w ~seed ~k in
      Gc.full_major ();
      let inst, run_s = iteration w W.plain ~seed ~mode:W.Timed in
      let o = account t inst in
      (setup_s, run_s, float_of_int o.W.ops /. run_s))

let mb_of_words w = float_of_int w *. float_of_int (Sys.word_size / 8) /. 1048576.

let sim_metrics t =
  match t.sim with
  | Some s ->
    [
      ("sim_time_us", s.W.sim_time_us);
      ("messages", float_of_int s.W.messages);
      ("bytes", float_of_int s.W.bytes);
    ]
  | None -> []

(* keep exactly the metrics [specs] names, in their order *)
let select specs values =
  List.map
    (fun (m : Spec.metric) ->
      match List.assoc_opt m.Spec.name values with
      | Some v -> (m.Spec.name, v)
      | None -> invalid_arg ("Runner: metric not measured: " ^ m.Spec.name))
    specs

(* ------------------------------------------------------------------ *)
(* Untraced run: end-to-end metrics                                    *)
(* ------------------------------------------------------------------ *)

let untraced (w : W.t) ~seed ~seconds ~min_iters =
  let t = tally () in
  (* the first iteration in a fresh process is the only one whose peak
     heap no earlier run can have raised *)
  let inst, _ = iteration w W.plain ~seed ~mode:W.Timed in
  let peak_heap_mb = mb_of_words (Gc.quick_stat ()).Gc.top_heap_words in
  ignore (account t inst);
  let k = batch_size w ~seed in
  let samples = timed_iterations t w ~seed ~k ~seconds ~min_iters in
  let setups = List.map (fun (s, _, _) -> s) samples in
  let runs = List.map (fun (_, r, _) -> r) samples in
  let rates = List.map (fun (_, _, r) -> r) samples in
  let q1, _, q3 = Stats.quartiles runs in
  log "%s seed=%d: %d timed runs, run_s median %.4f (q1 %.4f, q3 %.4f), setup_s %.6f (batches of %d)"
    w.W.name seed (List.length runs) (Stats.median runs) q1 q3 (Stats.median setups) k;
  log "  run_s samples in order: %s"
    (String.concat " " (List.map (Printf.sprintf "%.3f") runs));
  List.iter (log "  check failed: %s") t.problems;
  {
    correct = correct t;
    attempted = t.attempted;
    failed = t.failed;
    metrics =
      select Spec.end_to_end
        ([
           ("setup_s", Stats.median setups);
           ("run_s", Stats.median runs);
           ("ops_per_s", Stats.median rates);
           ("peak_heap_mb", peak_heap_mb);
         ]
        @ sim_metrics t);
  }

(* ------------------------------------------------------------------ *)
(* Traced run: per-layer metrics                                       *)
(* ------------------------------------------------------------------ *)

(* the replayed update stream is node 1's (every workload has one) *)
let replay_node = 1

let has_checker (inst : W.instance) =
  Mc_dsm.Runtime.online_checker inst.W.rt <> None

let find_span all name =
  List.find (fun s -> s.Spans.name = name && s.Spans.parent = -1) all

let traced_iteration (w : W.t) ~seed =
  let layers = Layers.create ~node:replay_node in
  let probe = Layers.probe layers in
  let record name f = Spans.record layers.Layers.spans name f in
  let inst = record "setup" (fun () -> w.W.setup probe ~seed ~mode:W.Timed) in
  record "run" inst.W.run;
  let all = Spans.spans layers.Layers.spans in
  let metrics =
    Layers.iteration_metrics layers inst.W.rt ~setup:(find_span all "setup")
      ~run:(find_span all "run")
  in
  (layers, inst, metrics)

let traced ?trace_file (w : W.t) ~seed ~seconds ~min_iters =
  let t = tally () in
  let inst, _ = iteration w W.plain ~seed ~mode:W.Timed in
  ignore (account t inst);
  let k = batch_size w ~seed in
  let plain =
    timed_iterations t w ~seed ~k ~seconds:(seconds /. 2.) ~min_iters
  in
  let plain_setup = Stats.median (List.map (fun (s, _, _) -> s) plain) in
  let plain_runs = List.map (fun (_, r, _) -> r) plain in
  (* only the last traced iteration is kept, for its replays and spans *)
  let last_iteration = ref None in
  let iterations =
    repeat
      ~before:(fun () -> last_iteration := None)
      ~seconds:(seconds /. 2.) ~min_iters
      (fun () ->
        let layers, inst, metrics = traced_iteration w ~seed in
        ignore (account t inst);
        last_iteration := Some (layers, inst);
        metrics @ inst.W.counts ())
  in
  let layers, last = Option.get !last_iteration in
  let traced_metrics =
    List.map
      (fun (name, _) ->
        (name, Stats.median (List.map (List.assoc name) iterations)))
      (List.hd iterations)
  in
  let plain_run = Stats.median plain_runs in
  (* the online checker's share: the same workload with it off *)
  let online_check_s =
    match has_checker last with
    | false -> 0.
    | true ->
      let off =
        repeat ~seconds:(seconds /. 8.) ~min_iters (fun () ->
            let inst, run_s = iteration w W.plain ~seed ~mode:W.Checker_off in
            ignore (account ~compare_sim:false t inst);
            run_s)
      in
      plain_run -. Stats.median off
  in
  let record name f = Spans.record layers.Layers.spans name f in
  let replica =
    record "replica.replay" (fun () ->
        if layers.Layers.capture.Layers.events = [] then None
        else Some (Layers.replay_replica last.W.rt layers.Layers.capture))
  in
  (match replica with
  | Some r when not r.Layers.drained ->
    problem t "replica replay left updates undelivered"
  | _ -> ());
  (* a history to replay: check-offline records one anyway; the
     checker-on workload is run once more with recording on *)
  let recorded =
    match last.W.history with
    | Some _ as h -> h
    | None when has_checker last ->
      let inst, _ = iteration w W.plain ~seed ~mode:W.Recorded in
      ignore (account t inst);
      inst.W.history
    | None -> None
  in
  let history =
    record "history.replay" (fun () -> Option.map Layers.replay_history recorded)
  in
  (match history with
  | Some h when h.Layers.online_failures > 0 ->
    problem t "online replay of the recorded history rejected reads"
  | _ -> ());
  let or0 f = function Some x -> f x | None -> 0. in
  let metrics =
    traced_metrics
    @ [
        ("online.check_s", online_check_s);
        ("replica.replay_s", or0 (fun r -> r.Layers.replay_s) replica);
        ("replica.updates", or0 (fun r -> float_of_int r.Layers.updates) replica);
        ( "replica.ns_per_update",
          or0
            (fun r ->
              if r.Layers.updates = 0 then 0.
              else r.Layers.replay_s *. 1e9 /. float_of_int r.Layers.updates)
            replica );
        ("history.materialize_s", or0 (fun h -> h.Layers.materialize_s) history);
        ("history.stream_s", or0 (fun h -> h.Layers.stream_s) history);
        ("history.ops", or0 (fun h -> float_of_int h.Layers.ops) history);
        ("online.replay_s", or0 (fun h -> h.Layers.online_replay_s) history);
        ("trace.overhead", (List.assoc "run_s" traced_metrics /. plain_run) -. 1.);
        ( "trace.setup_overhead",
          (List.assoc "setup_s" traced_metrics /. plain_setup) -. 1. );
      ]
  in
  (match trace_file with
  | Some path ->
    let oc = open_out path in
    output_string oc (Mc_obs.Trace.to_chrome (Spans.to_trace (Spans.spans layers.Layers.spans)));
    close_out oc;
    log "spans of the last traced iteration: %s" path
  | None -> ());
  log "%s seed=%d: %d untraced + %d traced runs, trace overhead %.1f%%" w.W.name
    seed (List.length plain_runs) (List.length iterations)
    (100. *. List.assoc "trace.overhead" metrics);
  List.iter (log "  check failed: %s") t.problems;
  {
    correct = correct t;
    attempted = t.attempted;
    failed = t.failed;
    metrics = select Spec.per_layer metrics;
  }

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else invalid_arg "Runner.json_number: not a finite number"

let to_json r =
  let metric (name, v) =
    Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Spec.json_string name)
      (json_number v)
      (Spec.json_string (Spec.unit_of name))
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed
    (String.concat ", " (List.map metric r.metrics))
