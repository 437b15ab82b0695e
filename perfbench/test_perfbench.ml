(* Tests of the benchmark's own logic, plus a tiny-size smoke run of
   every workload in both modes. *)

open Perfbench
module Json = Mc_obs.Report.Json

let close = Alcotest.float 1e-9

(* ------------------------------------------------------------------ *)
(* Order statistics (reference values from Python's statistics module) *)
(* ------------------------------------------------------------------ *)

let triple (a, b, c) = [ a; b; c ]

let test_median () =
  Alcotest.check close "odd" 4. (Stats.median [ 5.; 1.; 4. ]);
  Alcotest.check close "even" 5.5
    (Stats.median (List.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check close "single" 7. (Stats.median [ 7. ])

let test_quartiles () =
  let q xs = triple (Stats.quartiles xs) in
  Alcotest.(check (list close)) "1..10" [ 2.75; 5.5; 8.25 ]
    (q (List.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.(check (list close)) "two points extrapolate" [ 0.5; 2.0; 3.5 ] (q [ 3.; 1. ]);
  Alcotest.(check (list close)) "three points" [ 1.; 4.; 5. ] (q [ 5.; 1.; 4. ]);
  Alcotest.(check (list close)) "unsorted five" [ 0.15; 0.4; 0.8 ]
    (q [ 0.7; 0.1; 0.4; 0.2; 0.9 ])

(* ------------------------------------------------------------------ *)
(* Self time: a span minus the union of its children's intervals       *)
(* ------------------------------------------------------------------ *)

let span ?(parent = 0) id start stop = { Spans.id; parent; name = "s"; start; stop }

let test_self_time () =
  let root = span ~parent:(-1) 0 0 100 in
  let children =
    [
      span 1 10 20;
      span 2 15 30 (* overlaps the first: counted once *);
      span 3 50 60;
      span 4 90 120 (* sticks out of the parent: clipped *);
      span ~parent:3 5 52 58 (* a grandchild is inside its parent *);
    ]
  in
  let all = root :: children in
  Alcotest.(check int) "union of children" 60 (Spans.self_time all root);
  Alcotest.(check int) "grandchild" 4 (Spans.self_time all (List.nth children 2));
  Alcotest.(check int) "leaf" 10 (Spans.self_time all (List.hd children));
  Alcotest.(check int) "touching intervals merge" 80
    (Spans.covered ~start:0 ~stop:100 [ (0, 40); (40, 80) ])

let test_record () =
  let t = Spans.create () in
  let v =
    Spans.record t "outer" (fun () ->
        Spans.record t "inner" (fun () -> 1) + Spans.record t "inner" (fun () -> 2))
  in
  Alcotest.(check int) "value" 3 v;
  let all = Spans.spans t in
  let outer = List.find (fun s -> s.Spans.name = "outer") all in
  let named n = List.filter (fun s -> s.Spans.name = n) in
  Alcotest.(check int) "two inner" 2 (List.length (named "inner" all));
  List.iter
    (fun s ->
      if s.Spans.name = "inner" then
        Alcotest.(check int) "nested under outer" outer.Spans.id s.Spans.parent)
    all;
  Alcotest.(check bool) "self within duration" true
    (Spans.self_time all outer <= Spans.duration outer);
  (* a raising call still closes its span *)
  (try Spans.record t "fails" (fun () -> failwith "x") with Failure _ -> ());
  Alcotest.(check int) "closed on raise" 1 (List.length (named "fails" (Spans.spans t)))

(* ------------------------------------------------------------------ *)
(* Failure accounting                                                  *)
(* ------------------------------------------------------------------ *)

let test_failed_ops () =
  let o = Workloads.outcome ~ops:100 ~exact:true ~rejected:0 ~errors:[] in
  Alcotest.(check int) "clean" 0 o.Workloads.failed;
  Alcotest.(check (list string)) "no errors" [] o.Workloads.errors;
  let o = Workloads.outcome ~ops:100 ~exact:true ~rejected:3 ~errors:[] in
  Alcotest.(check int) "each rejected read fails one op" 3 o.Workloads.failed;
  let o = Workloads.outcome ~ops:100 ~exact:false ~rejected:3 ~errors:[] in
  Alcotest.(check int) "a wrong result fails every op" 100 o.Workloads.failed;
  let o = Workloads.outcome ~ops:100 ~exact:true ~rejected:0 ~errors:[ "lint" ] in
  Alcotest.(check int) "other check errors fail no op" 0 o.Workloads.failed;
  Alcotest.(check (list string)) "but are reported" [ "lint" ] o.Workloads.errors

(* ------------------------------------------------------------------ *)
(* Smoke: every workload at tiny size, both modes                      *)
(* ------------------------------------------------------------------ *)

let field k = function
  | Json.Obj kv -> (
    match List.assoc_opt k kv with
    | Some v -> v
    | None -> Alcotest.failf "missing key %s" k)
  | _ -> Alcotest.failf "not an object (looking for %s)" k

let str = function Json.Str s -> s | _ -> Alcotest.fail "not a string"
let num = function Json.Num f -> f | _ -> Alcotest.fail "not a number"

(* the printed result carries exactly the [specs] metrics, each with its
   unit, and a clean failure account *)
let check_result specs (r : Runner.result) =
  let j = Json.parse (Runner.to_json r) in
  Alcotest.(check bool) "correct" true (field "correct" j = Json.Bool true);
  Alcotest.(check bool) "attempted" true (num (field "attempted" j) >= 1.);
  Alcotest.(check (float 0.)) "failed" 0. (num (field "failed" j));
  let metrics = match field "metrics" j with Json.Obj kv -> kv | _ -> [] in
  Alcotest.(check (list string)) "metric names"
    (List.map (fun m -> m.Spec.name) specs)
    (List.map fst metrics);
  List.iter
    (fun (m : Spec.metric) ->
      let v = List.assoc m.Spec.name metrics in
      Alcotest.(check string) (m.Spec.name ^ " unit") m.Spec.unit (str (field "unit" v));
      ignore (num (field "value" v)))
    specs

let simulated = [ "sim_time_us"; "messages"; "bytes" ]

let smoke (w : Workloads.t) () =
  let run mode = mode w ~seed:Spec.held_back_seed ~seconds:0. ~min_iters:1 in
  let untraced = run Runner.untraced in
  check_result Spec.end_to_end untraced;
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " > 0") true (List.assoc name untraced.Runner.metrics > 0.))
    ([ "setup_s"; "run_s"; "ops_per_s" ] @ simulated);
  let again = run Runner.untraced in
  List.iter
    (fun name ->
      Alcotest.(check (float 0.)) (name ^ " repeats exactly")
        (List.assoc name untraced.Runner.metrics)
        (List.assoc name again.Runner.metrics))
    simulated;
  check_result Spec.per_layer (run (Runner.traced ?trace_file:None))

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json lists the same workloads and metrics                 *)
(* ------------------------------------------------------------------ *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_benchmark_json () =
  let j = Json.parse (read_file "../BENCHMARK.json") in
  let items k = match field k j with Json.List l -> l | _ -> [] in
  Alcotest.(check (list string)) "workloads"
    (List.map (fun w -> w.Spec.w_name) Spec.workloads)
    (List.map (fun w -> str (field "name" w)) (items "workloads"));
  List.iter2
    (fun (w : Spec.workload_doc) v ->
      Alcotest.(check string) (w.Spec.w_name ^ " why") (Spec.why w) (str (field "why" v));
      Alcotest.(check bool) (w.Spec.w_name ^ " why fits") true
        (String.length (Spec.why w) <= 200))
    Spec.workloads (items "workloads");
  let check_metrics key specs =
    let got = items key in
    Alcotest.(check (list string)) key
      (List.map (fun m -> m.Spec.name) specs)
      (List.map (fun v -> str (field "name" v)) got);
    List.iter2
      (fun (m : Spec.metric) v ->
        Alcotest.(check string) (m.Spec.name ^ " unit") m.Spec.unit (str (field "unit" v));
        Alcotest.(check string) (m.Spec.name ^ " better")
          (Spec.better_to_string m.Spec.better)
          (str (field "better" v));
        Option.iter
          (fun b -> Alcotest.check close (m.Spec.name ^ " bound") b (num (field "bound" v)))
          m.Spec.bound)
      specs got
  in
  check_metrics "end_to_end" Spec.end_to_end;
  check_metrics "per_layer" Spec.per_layer

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quartiles match Python" `Quick test_quartiles;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time subtracts the union of children" `Quick
            test_self_time;
          Alcotest.test_case "record nests and closes" `Quick test_record;
        ] );
      ("accounting", [ Alcotest.test_case "failed ops" `Quick test_failed_ops ]);
      ( "smoke",
        List.map
          (fun (w : Workloads.t) ->
            Alcotest.test_case (w.Workloads.name ^ " tiny") `Quick (smoke w))
          (Workloads.all Workloads.Tiny) );
      ( "benchmark.json",
        [ Alcotest.test_case "names, units and bounds agree" `Quick test_benchmark_json ] );
    ]
