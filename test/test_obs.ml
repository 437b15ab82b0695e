(* Mc_obs unit tests plus a differential check of the traced timeline
   against the simulation: histogram bucket-boundary semantics, label
   cardinality and handle identity, gauge high-water marks, ring-buffer
   wraparound and sink mirroring, Chrome-export JSON validity, and a
   runtime run where every recorded operation must produce exactly one
   span and all traced timestamps must respect engine event order. *)

module Metrics = Mc_obs.Metrics
module Trace = Mc_obs.Trace
module Engine = Mc_sim.Engine
module Runtime = Mc_dsm.Runtime
module Config = Mc_dsm.Config
module Op = Mc_history.Op
module History = Mc_history.History

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)
(* ------------------------------------------------------------------ *)

let test_histogram_buckets () =
  let reg = Metrics.Registry.create () in
  let h = Metrics.Registry.histogram reg ~buckets:[| 1.0; 2.0; 5.0 |] "h" in
  (* boundary values land in the bucket whose bound equals them *)
  List.iter (Metrics.Histogram.observe h) [ 1.0; 1.5; 2.0; 5.0; 6.0; -3.0 ];
  (match Metrics.Histogram.buckets h with
  | [ (b1, c1); (b2, c2); (b3, c3); (binf, cinf) ] ->
    check "bound 1" true (b1 = 1.0);
    (* -3.0 and 1.0: anything <= the first bound lands in bucket one *)
    check_int "cum <=1" 2 c1;
    check "bound 2" true (b2 = 2.0);
    check_int "cum <=2" 4 c2;
    check "bound 5" true (b3 = 5.0);
    check_int "cum <=5" 5 c3;
    check "last bound inf" true (binf = infinity);
    check_int "cum total" 6 cinf
  | bs -> Alcotest.failf "expected 4 buckets, got %d" (List.length bs));
  check_int "count" 6 (Metrics.Histogram.count h);
  check "sum" true (abs_float (Metrics.Histogram.sum h -. 12.5) < 1e-9);
  check "min" true (Metrics.Histogram.min h = -3.0);
  check "max" true (Metrics.Histogram.max h = 6.0);
  (* the embedded summary is the live handle, not a copy *)
  let s = Metrics.Histogram.summary h in
  check_int "summary shares count" 6 (Mc_util.Stats.Summary.count s);
  Metrics.Histogram.observe h 100.0;
  check_int "summary sees later observe" 7 (Mc_util.Stats.Summary.count s)

let test_histogram_invalid_buckets () =
  let reg = Metrics.Registry.create () in
  let raises f =
    match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  check "non-increasing rejected" true
    (raises (fun () ->
         Metrics.Registry.histogram reg ~buckets:[| 2.0; 1.0 |] "bad1"));
  check "duplicate bound rejected" true
    (raises (fun () ->
         Metrics.Registry.histogram reg ~buckets:[| 1.0; 1.0 |] "bad2"));
  check "nan rejected" true
    (raises (fun () ->
         Metrics.Registry.histogram reg ~buckets:[| 1.0; nan |] "bad3"));
  (* no explicit bounds degenerates to the single implicit +inf bucket *)
  let h = Metrics.Registry.histogram reg ~buckets:[||] "inf_only" in
  Metrics.Histogram.observe h 5.0;
  check "degenerate histogram" true
    (Metrics.Histogram.buckets h = [ (infinity, 1) ])

(* ------------------------------------------------------------------ *)
(* Registry: labels, identity, type safety                             *)
(* ------------------------------------------------------------------ *)

let test_label_cardinality () =
  let reg = Metrics.Registry.create () in
  let c_read = Metrics.Registry.counter reg ~labels:[ ("op", "read") ] "ops" in
  let c_write = Metrics.Registry.counter reg ~labels:[ ("op", "write") ] "ops" in
  let c_rw =
    Metrics.Registry.counter reg
      ~labels:[ ("proc", "0"); ("op", "read") ]
      "ops"
  in
  check "distinct label sets are distinct series" true (c_read != c_write);
  check_int "three series" 3 (Metrics.Registry.series_count reg);
  (* label order must not matter: same key set -> same handle *)
  let c_rw' =
    Metrics.Registry.counter reg
      ~labels:[ ("op", "read"); ("proc", "0") ]
      "ops"
  in
  check "label order irrelevant" true (c_rw == c_rw');
  check_int "still three series" 3 (Metrics.Registry.series_count reg);
  Metrics.Counter.incr c_read;
  Metrics.Counter.add c_write 5;
  let total =
    List.fold_left
      (fun acc (_, _, c) -> acc + Metrics.Counter.get c)
      0
      (Metrics.Registry.counters reg)
  in
  check_int "counters enumerate all series" 6 total;
  (* re-registering under a different metric type is a hard error *)
  (match Metrics.Registry.gauge reg ~labels:[ ("op", "read") ] "ops" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "type clash not detected")

let test_gauge_high_water () =
  let reg = Metrics.Registry.create () in
  let g = Metrics.Registry.gauge reg "depth" in
  Metrics.Gauge.set g 3.0;
  Metrics.Gauge.set g 10.0;
  Metrics.Gauge.set g 2.0;
  Metrics.Gauge.add g 1.0;
  check "current" true (Metrics.Gauge.get g = 3.0);
  check "high water survives decrease" true (Metrics.Gauge.high_water g = 10.0)

(* ------------------------------------------------------------------ *)
(* A minimal JSON syntax validator (no json library in the test deps)  *)
(* ------------------------------------------------------------------ *)

let json_valid (s : string) : bool =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let fail () = raise Exit in
  let expect c = if peek () = Some c then advance () else fail () in
  let literal word =
    String.iter (fun c -> expect c) word
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> string_lit ()
    | Some 't' -> literal "true"
    | Some 'f' -> literal "false"
    | Some 'n' -> literal "null"
    | Some ('-' | '0' .. '9') -> number ()
    | _ -> fail ()
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then advance ()
    else begin
      members ();
      skip_ws ();
      expect '}'
    end
  and members () =
    skip_ws ();
    string_lit ();
    skip_ws ();
    expect ':';
    value ();
    skip_ws ();
    if peek () = Some ',' then begin
      advance ();
      members ()
    end
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then advance ()
    else begin
      value ();
      skip_ws ();
      while peek () = Some ',' do
        advance ();
        value ();
        skip_ws ()
      done;
      expect ']'
    end
  and string_lit () =
    expect '"';
    let rec body () =
      match peek () with
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') ->
          advance ();
          body ()
        | Some 'u' ->
          advance ();
          for _ = 1 to 4 do
            match peek () with
            | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
            | _ -> fail ()
          done;
          body ()
        | _ -> fail ())
      | Some _ ->
        advance ();
        body ()
      | None -> fail ()
    in
    body ()
  and number () =
    let digits () =
      let seen = ref false in
      let rec go () =
        match peek () with
        | Some '0' .. '9' ->
          seen := true;
          advance ();
          go ()
        | _ -> ()
      in
      go ();
      if not !seen then fail ()
    in
    if peek () = Some '-' then advance ();
    digits ();
    if peek () = Some '.' then begin
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      digits ()
    | _ -> ())
  in
  match
    value ();
    skip_ws ();
    !pos = n
  with
  | complete -> complete
  | exception Exit -> false

let test_json_validator_sanity () =
  check "accepts object" true (json_valid {|{"a": [1, 2.5, -3e2], "b": null}|});
  check "rejects trailing comma" false (json_valid {|{"a": 1,}|});
  check "rejects bare word" false (json_valid "hello");
  check "rejects unterminated string" false (json_valid {|{"a": "x}|})

let test_registry_json () =
  let reg = Metrics.Registry.create () in
  let c = Metrics.Registry.counter reg ~labels:[ ("op", "read") ] "ops" in
  Metrics.Counter.incr c;
  let h = Metrics.Registry.histogram reg "wait" in
  Metrics.Histogram.observe h 3.5;
  Metrics.Registry.gauge_fn reg "cb" (fun () -> 42.0);
  let g = Metrics.Registry.gauge reg "inf_gauge" in
  Metrics.Gauge.set g infinity;
  (* non-finite values must serialize as null, not bare inf *)
  check "registry json valid" true (json_valid (Metrics.Registry.to_json reg))

(* ------------------------------------------------------------------ *)
(* Trace ring buffer and sinks                                         *)
(* ------------------------------------------------------------------ *)

let test_ring_wraparound () =
  let t = Trace.create ~capacity:8 () in
  let mirrored = ref 0 in
  let closed = ref 0 in
  Trace.add_sink t
    { Trace.on_event = (fun _ -> incr mirrored); on_close = (fun () -> incr closed) };
  for i = 1 to 20 do
    Trace.instant t ~tid:0 ~ts:(float_of_int i) (Printf.sprintf "e%d" i)
  done;
  check_int "total emitted" 20 (Trace.event_count t);
  check_int "dropped" 12 (Trace.dropped t);
  let kept = Trace.events t in
  check_int "ring holds capacity" 8 (List.length kept);
  (* oldest-first: events 13..20 survive, in order *)
  List.iteri
    (fun i ev ->
      match ev with
      | Trace.Instant { name; ts; _ } ->
        check ("kept " ^ name) true
          (name = Printf.sprintf "e%d" (13 + i) && ts = float_of_int (13 + i))
      | _ -> Alcotest.fail "unexpected event kind")
    kept;
  (* sinks see every event, not just the ring survivors *)
  check_int "sink mirrored all" 20 !mirrored;
  Trace.close t;
  Trace.close t;
  check_int "on_close once" 1 !closed

let test_ring_under_capacity () =
  let t = Trace.create ~capacity:8 () in
  Trace.span t ~tid:1 ~ts:10.0 ~dur:2.0 "op";
  Trace.flow t ~id:7 ~src:0 ~dst:1 ~ts_send:1.0 ~ts_recv:4.0 "msg";
  check_int "no drops" 0 (Trace.dropped t);
  check_int "two events" 2 (List.length (Trace.events t));
  check_int "one span" 1 (Trace.span_count t)

let test_chrome_export () =
  let t = Trace.create ~capacity:16 () in
  Trace.span t ~tid:0 ~ts:1.0 ~dur:2.0 ~args:[ ("loc", "x") ] "read";
  Trace.instant t ~tid:1 ~ts:3.0 "sync_epoch";
  Trace.flow t ~id:1 ~src:0 ~dst:1 ~ts_send:1.0 ~ts_recv:5.0 "update";
  Trace.counter t ~tid:0 ~ts:6.0 "depth" 4.0;
  let body = Trace.to_chrome t in
  check "chrome json valid" true (json_valid body);
  (* a Flow renders as a start and an end arc: two newline-joined
     objects, each individually valid JSON *)
  let flow_json =
    Trace.event_to_chrome_json
      (Trace.Flow
         {
           id = 1;
           name = "m";
           cat = "msg";
           src = 0;
           dst = 1;
           ts_send = 1.0;
           ts_recv = 2.0;
           args = [];
         })
  in
  (match String.split_on_char '\n' flow_json with
  | [ s_part; f_part ] ->
    check "flow start arc valid" true (json_valid s_part);
    check "flow finish arc valid" true (json_valid f_part)
  | parts -> Alcotest.failf "flow rendered as %d objects" (List.length parts));
  (* non-flow events render as a single object *)
  List.iter
    (fun ev ->
      match ev with
      | Trace.Flow _ -> ()
      | ev -> check "event json valid" true (json_valid (Trace.event_to_chrome_json ev)))
    (Trace.events t)

(* ------------------------------------------------------------------ *)
(* Differential: traced timeline vs engine event order                 *)
(* ------------------------------------------------------------------ *)

(* every recorded operation produces exactly one Complete span; spans,
   instants and flow send-points are emitted in simulation order, so the
   emission timestamp must be non-decreasing along the buffer and never
   exceed the final virtual time *)
let observed_workload ~procs (rt : Runtime.t) =
  for i = 0 to procs - 1 do
    Runtime.spawn_process rt i (fun p ->
        for k = 1 to 3 do
          Runtime.write p (Printf.sprintf "w:%d:%d" i k) ((i * 100) + k)
        done;
        Runtime.barrier p;
        for j = 0 to procs - 1 do
          ignore (Runtime.read p ~label:Op.PRAM (Printf.sprintf "w:%d:3" j))
        done;
        Runtime.write_lock p "l";
        let v = Runtime.read p "acc" in
        Runtime.write p "acc" (v + 1);
        Runtime.write_unlock p "l";
        Runtime.barrier p)
  done

let test_span_op_parity_and_order () =
  let procs = 3 in
  let tracer = Trace.create ~capacity:65536 () in
  let engine = Engine.create () in
  let cfg =
    {
      (Config.default ~procs) with
      record = true;
      observe = true;
      tracer = Some tracer;
    }
  in
  let rt = Runtime.create engine cfg in
  observed_workload ~procs rt;
  let final = Runtime.run rt in
  let ops = History.length (Runtime.history rt) in
  check "workload recorded something" true (ops > 0);
  check_int "one span per recorded op" ops (Trace.span_count tracer);
  check_int "nothing dropped" 0 (Trace.dropped tracer);
  (* Events are emitted as the engine executes them, so engine-clocked
     timestamps (span completions, instants, counters) must be
     non-decreasing along the buffer. A flow's [ts_send] is the network
     departure time — at or after the engine clock at emission — so it
     is bounded below by the running engine watermark but does not
     advance it. *)
  let eps = 1e-9 in
  let prev = ref neg_infinity in
  List.iter
    (fun ev ->
      match ev with
      | Trace.Complete { ts; dur; _ } ->
        let at = ts +. dur in
        check "span completion follows engine order" true (at >= !prev -. eps);
        prev := at;
        check "span within run" true (ts >= 0.0 && at <= final +. eps);
        check "non-negative duration" true (dur >= 0.0)
      | Trace.Instant { ts; _ } | Trace.Counter { ts; _ } ->
        check "instant follows engine order" true (ts >= !prev -. eps);
        prev := ts
      | Trace.Flow { ts_send; ts_recv; src; dst; _ } ->
        check "flow departs no earlier than engine clock" true
          (ts_send >= !prev -. eps);
        check "flow arrow forward in time" true (ts_recv >= ts_send -. eps);
        check "flow endpoints are procs" true
          (src >= 0 && src < procs && dst >= 0 && dst < procs && src <> dst))
    (Trace.events tracer);
  (* the full Chrome artifact for this run parses *)
  check "run trace chrome-valid" true (json_valid (Trace.to_chrome tracer));
  (* registry-backed compatibility API still behaves like the seed's *)
  let counts = Runtime.op_counts rt in
  let count k = try List.assoc k counts with Not_found -> 0 in
  check_int "write count" (procs * 4) (count "write");
  check_int "read count" (procs * (procs + 1)) (count "read");
  check_int "barrier count" (procs * 2) (count "barrier");
  let summaries = Runtime.wait_summaries rt in
  check "barrier waits summarized" true
    (match List.assoc_opt "barrier" summaries with
    | Some s -> Mc_util.Stats.Summary.count s = procs * 2
    | None -> false);
  (* op totals agree between the compat API and the registry *)
  let total_ops = List.fold_left (fun a (_, c) -> a + c) 0 counts in
  check_int "registry/compat agreement" ops total_ops

let test_observation_is_passive () =
  (* attaching metrics and a tracer must not perturb virtual time *)
  let run ~observe ~tracer =
    let engine = Engine.create () in
    let cfg = { (Config.default ~procs:3) with observe; tracer } in
    let rt = Runtime.create engine cfg in
    observed_workload ~procs:3 rt;
    let t = Runtime.run rt in
    (t, Runtime.peek rt ~proc:0 "acc")
  in
  let t_off, acc_off = run ~observe:false ~tracer:None in
  let t_on, acc_on =
    run ~observe:true ~tracer:(Some (Trace.create ~capacity:1024 ()))
  in
  check "same final time" true (t_off = t_on);
  check_int "same result" acc_off acc_on

(* ------------------------------------------------------------------ *)
(* Shard-aware flight recorder and postmortem report                   *)
(* ------------------------------------------------------------------ *)

module Report = Mc_obs.Report
module Placement = Mc_placement.Placement
module Solver = Mc_apps.Linear_solver
module Api = Mc_dsm.Api

(* the sharded series must be labelled per shard or per node, never per
   operation: at 1000 procs x 120 shards the registry stays linear in
   (procs + shards) and does not grow with the op count *)
let test_shard_label_cardinality () =
  let procs = 1000 and shards = 120 in
  let series ~writes =
    let engine = Engine.create () in
    let pl = Placement.create ~shards ~policy:Placement.Hash () in
    for node = 0 to procs - 1 do
      Placement.subscribe pl ~node ~shard:(node mod shards)
    done;
    (* the writer subscribes every shard so all of them carry traffic *)
    for shard = 0 to shards - 1 do
      Placement.subscribe pl ~node:0 ~shard
    done;
    let cfg =
      { (Config.default ~procs) with observe = true; placement = Some pl }
    in
    let rt = Runtime.create engine cfg in
    Runtime.spawn_process rt 0 (fun p ->
        for i = 1 to writes do
          Runtime.write p (Printf.sprintf "k:%d" (i mod 300)) i
        done);
    ignore (Runtime.run rt);
    Metrics.Registry.series_count (Runtime.metrics rt)
  in
  (* both runs touch the same 300 locations (hence the same shards, as
     the per-shard histograms are created on first touch); only the op
     count differs — by 4x *)
  let small = series ~writes:400 in
  let large = series ~writes:1600 in
  check_int "series count independent of op count" small large;
  check "series count linear in procs + shards" true
    (small <= 8 * (procs + shards))

(* the live [mcdsm report] pipeline: sharded solver with metrics,
   tracer, recorder and online checker all attached *)
let sharded_solver_run ~seed =
  let n = 8 and procs = 3 and shards = 4 in
  let tracer = Trace.create ~capacity:65536 () in
  let engine = Engine.create () in
  let pl =
    Placement.create ~shards ~policy:(Placement.Range { objects = n }) ()
  in
  Solver.subscribe_shards pl ~procs ~n;
  let cfg =
    {
      (Config.default ~procs) with
      record = true;
      check_online = true;
      observe = true;
      placement = Some pl;
      tracer = Some tracer;
    }
  in
  let rt = Runtime.create engine cfg in
  let problem = Solver.Problem.generate ~seed ~n in
  ignore
    (Solver.launch ~spawn:(Api.spawn rt) ~procs ~variant:Solver.Barrier_pram
       problem);
  ignore (Runtime.run rt);
  (rt, tracer)

let live_input (rt, tracer) =
  {
    Report.events = Trace.events tracer;
    metrics = Metrics.Registry.snapshot (Runtime.metrics rt);
    violations = Some [];
    meta = [ ("mode", "live") ];
  }

let test_report_json_deterministic () =
  let j1 = Report.to_json (Report.analyze (live_input (sharded_solver_run ~seed:42))) in
  let j2 = Report.to_json (Report.analyze (live_input (sharded_solver_run ~seed:42))) in
  check "report json valid" true (json_valid j1);
  check "byte-identical across two seeded runs" true (String.equal j1 j2);
  (* the report actually carries shard flight data *)
  let r = Report.analyze (live_input (sharded_solver_run ~seed:42)) in
  check "has shard rows" true (r.Report.r_shards <> []);
  check "some shard has visibility stats" true
    (List.exists (fun row -> row.Report.sr_vis <> None) r.Report.r_shards);
  check "some shard has fetch stats" true
    (List.exists (fun row -> row.Report.sr_fetches > 0) r.Report.r_shards)

(* analyzing the live event buffer and re-parsing the exported trace
   file must agree: counts exactly, latency stats within the float
   precision of the export format (9 significant digits) *)
let test_report_live_file_parity () =
  let ((rt, tracer) as run) = sharded_solver_run ~seed:42 in
  let live = Report.analyze (live_input run) in
  let jsonl =
    String.concat "\n"
      (List.map Trace.event_to_chrome_json (Trace.events tracer))
  in
  let events = Report.parse_trace jsonl in
  let metrics =
    Report.parse_metrics (Metrics.Registry.to_json (Runtime.metrics rt))
  in
  let filed =
    Report.analyze { Report.events; metrics; violations = None; meta = [] }
  in
  check_int "events round-trip" live.Report.r_events filed.Report.r_events;
  check_int "op spans" live.Report.r_op_spans filed.Report.r_op_spans;
  check_int "flows" live.Report.r_flows filed.Report.r_flows;
  check_int "instants" live.Report.r_instants filed.Report.r_instants;
  check_int "shard rows" (List.length live.Report.r_shards)
    (List.length filed.Report.r_shards);
  let close a b = Float.abs (a -. b) < 0.11 in
  let stats_close a b =
    match (a, b) with
    | None, None -> true
    | Some (x : Report.stat), Some (y : Report.stat) ->
      x.Report.n = y.Report.n
      && close x.Report.mean y.Report.mean
      && close x.Report.p50 y.Report.p50
      && close x.Report.p95 y.Report.p95
      && close x.Report.max y.Report.max
    | _ -> false
  in
  List.iter2
    (fun (a : Report.shard_row) (b : Report.shard_row) ->
      check_int "shard id" a.Report.sr_shard b.Report.sr_shard;
      check_int "updates" a.Report.sr_updates b.Report.sr_updates;
      check_int "hops" a.Report.sr_hops b.Report.sr_hops;
      check_int "applies" a.Report.sr_applies b.Report.sr_applies;
      check_int "in flight" a.Report.sr_in_flight b.Report.sr_in_flight;
      check_int "fetches" a.Report.sr_fetches b.Report.sr_fetches;
      check "visibility stats agree" true
        (stats_close a.Report.sr_vis b.Report.sr_vis);
      check "full-visibility stats agree" true
        (stats_close a.Report.sr_vis_full b.Report.sr_vis_full);
      check "fetch stats agree" true
        (stats_close a.Report.sr_fetch b.Report.sr_fetch))
    live.Report.r_shards filed.Report.r_shards;
  check "hot keys agree" true (live.Report.r_hot_keys = filed.Report.r_hot_keys);
  check "placement counters agree" true
    (live.Report.r_placement = filed.Report.r_placement);
  (* the whole-buffer chrome form parses to the same event set *)
  let chrome_events = Report.parse_trace (Trace.to_chrome tracer) in
  check_int "chrome form event count" (List.length events)
    (List.length chrome_events)

(* the CLI's --json --out echo: a path with non-ASCII bytes, a quote, a
   backslash and a control character parses back to itself *)
let test_json_quote_roundtrip () =
  List.iter
    (fun path ->
      match Report.Json.parse (Report.Json.quote path) with
      | Report.Json.Str s -> Alcotest.(check string) ("round trip " ^ path) path s
      | _ -> Alcotest.failf "%s: not parsed as a string" path)
    [
      "trace.json";
      "\xc3\xa9.json";
      "r\xc3\xa9sum\xc3\xa9s/\xe6\x97\xa5\xe6\x9c\xac.json";
      "a\"b\\c\td.json";
    ];
  (* on printable ASCII it agrees with OCaml's %S *)
  List.iter
    (fun path ->
      Alcotest.(check string) ("as %S: " ^ path) (Printf.sprintf "%S" path)
        (Report.Json.quote path))
    [ "out/m.json"; "a\"b\\c d.json"; "~!@#$%^&*()_+{}|:<>?`-=[];',./" ]

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
          Alcotest.test_case "invalid buckets" `Quick
            test_histogram_invalid_buckets;
          Alcotest.test_case "label cardinality" `Quick test_label_cardinality;
          Alcotest.test_case "gauge high water" `Quick test_gauge_high_water;
          Alcotest.test_case "json validator sanity" `Quick
            test_json_validator_sanity;
          Alcotest.test_case "registry json" `Quick test_registry_json;
        ] );
      ( "trace",
        [
          Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
          Alcotest.test_case "under capacity" `Quick test_ring_under_capacity;
          Alcotest.test_case "chrome export" `Quick test_chrome_export;
        ] );
      ( "differential",
        [
          Alcotest.test_case "span/op parity and order" `Quick
            test_span_op_parity_and_order;
          Alcotest.test_case "observation is passive" `Quick
            test_observation_is_passive;
        ] );
      ( "report",
        [
          Alcotest.test_case "shard label cardinality" `Quick
            test_shard_label_cardinality;
          Alcotest.test_case "report json deterministic" `Quick
            test_report_json_deterministic;
          Alcotest.test_case "live/file mode parity" `Quick
            test_report_live_file_parity;
          Alcotest.test_case "json quote round trip" `Quick test_json_quote_roundtrip;
        ] );
    ]
