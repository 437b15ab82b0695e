(* EXP-STATIC: symbolic analysis cost vs dynamic lint *)

open Harness
module Static = Mc_static.Static
module Models = Mc_apps.Static_models

let verdict_key = function
  | Mc_static.Classify.Corollary2 -> "corollary2"
  | Mc_static.Classify.Corollary1 -> "corollary1"
  | Mc_static.Classify.Theorem1 -> "theorem1"
  | Mc_static.Classify.Unproved _ -> "unproved"

let iters_c = col "T" ~key:"iters"
let ops = col "dyn ops" ~key:"ops"
let static_s = col "static (s)" ~digits:5 ~key:"static_s"
let lint_s = col "lint (s)" ~digits:5 ~key:"lint_s"
let ratio = col "lint/static"
let races = col "races s/d"
let static_races = field "static_races"
let dynamic_races = field "dynamic_races"
let verdict = col "verdict"
let verdict_json = field "verdict"
let program = field "program"
let analyze_s = field "analyze_s"
let errors = field "errors"

(* The symbolic analyzer never unrolls loops: its verdict for the
   barrier solver holds at every iteration count [T], so its cost is
   flat while the dynamic pipeline (concretize, then lint the recorded
   history) grows linearly with the execution it must observe. *)
let run ~quick =
  let iters = if quick then [ 4; 16 ] else [ 4; 16; 64 ] in
  let reps = if quick then 10 else 25 in
  let prog = Models.solver_barrier in
  let point t_iters =
    let srep, t_static = time ~reps (fun () -> Static.analyze prog) in
    let s_races = List.length srep.Static.srace.Mc_static.Srace.races in
    let h = (Mc_static.Concretize.run ~params:[ ("T", t_iters) ] prog).Mc_static.Concretize.history in
    let drep, t_dyn = time (fun () -> Mc_analysis.Analysis.analyze h) in
    let d_races = List.length drep.Mc_analysis.Analysis.races.Mc_analysis.Race.races in
    row
      [ iters_c, Int t_iters; ops, Int (History.length h); static_s, Seconds t_static;
        lint_s, Seconds t_dyn; ratio, Speedup (t_dyn /. Float.max t_static 1e-9);
        races, Text (Printf.sprintf "%d / %d" s_races d_races); static_races, Int s_races;
        dynamic_races, Int d_races;
        verdict, Text (Mc_static.Classify.verdict_to_string srep.Static.verdict);
        verdict_json, Text (verdict_key srep.Static.verdict) ]
  in
  let runs =
    table
      ~title:"EXP-STATIC: symbolic analyzer (flat in T) vs dynamic lint of the concretized run"
      [ iters_c; ops; static_s; lint_s; ratio; races; static_races; dynamic_races; verdict;
        verdict_json ]
      (List.map point iters)
  in
  (* verdicts and analysis cost for every app model at default params *)
  let app p =
    let r, t = time (fun () -> Static.analyze p) in
    row
      [ program, Text r.Static.program; verdict_json, Text (verdict_key r.Static.verdict);
        analyze_s, Seconds t; errors, Int (Static.count Mc_analysis.Diag.Error r) ]
  in
  let apps =
    table [ program; verdict_json; analyze_s; errors ] (List.map app (Models.all ()))
  in
  {
    tables = [ runs; apps ];
    note =
      "the symbolic analyzer reasons over loop binders, so one analysis covers every\n\
       iteration count and process count at once: its cost stays flat in T while the\n\
       dynamic pipeline must execute and lint a history that grows with T. Both\n\
       agree on race counts at every concretization (the containment property).";
    json =
      [ "params",
        Fields
          [ "program", Text "solver-barrier"; "iters", Ints iters; "reps", Int reps;
            "seed", Int bench_seed ];
        "runs", Rows runs; "apps", Rows apps ];
  }

let claims =
  [
    claim ~section:"Thm. 1" "static and dynamic race counts agree at every T" (fun rows ->
        List.for_all (fun r -> num r static_races = num r dynamic_races) (having static_races rows));
    claim ~section:"Thm. 1, Cors. 1-2" "every app model is analyzed with no errors" (fun rows ->
        List.for_all (fun r -> num r errors = 0.) (having errors rows));
  ]

let t = { id = "static"; name = "EXP-STATIC"; run; claims }
