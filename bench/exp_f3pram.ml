(* EXP-F3-PRAM: weakened Fig. 3 reads inconsistent values *)

open Harness

(* coordinator close to everyone; workers far from each other *)
let adverse_latency nodes =
  let lat = Array.make_matrix nodes nodes 2000. in
  for i = 0 to nodes - 1 do
    lat.(i).(i) <- 0.;
    lat.(i).(0) <- 5.;
    lat.(0).(i) <- 5.
  done;
  Latency.matrix lat

let variant = col "variant"
let matches = col "matches reference"
let well_formed = col "well-formed"
let mixed = col "mixed consistent"

let run ~quick:_ =
  let procs = 4 in
  let problem = Solver.Problem.generate ~seed:42 ~n:8 in
  (* compare mid-iteration trajectories (before convergence smooths the
     difference away): cap the iteration count below convergence *)
  let max_iters = 4 in
  let expected = Solver.reference ~variant:Solver.Handshake_causal ~max_iters problem in
  let run ?await_label v =
    let res, _ =
      run_mixed ~procs ?await_label ~latency:(adverse_latency procs) (fun _rt spawn ->
          Solver.launch ~spawn ~procs ~variant:v ~max_iters problem)
    in
    (Option.get !res).Solver.x = expected.Solver.x
  in
  let causal = run Solver.Handshake_causal in
  (* the weakened variant uses the paper's PRAM await (busy-wait of PRAM
     reads); a causal-gated await would mask the staleness *)
  let pram = run ~await_label:Op.PRAM Solver.Handshake_pram in
  (* consistency checks on a tiny recorded instance *)
  let tiny = Solver.Problem.generate ~seed:7 ~n:3 in
  let check_tiny v =
    let engine = Engine.create () in
    let cfg = { (Config.default ~procs:3) with record = true } in
    let cfg =
      if v = Solver.Handshake_pram then { cfg with await_label = Op.PRAM } else cfg
    in
    let rt = Runtime.create engine ~latency:(adverse_latency 3) cfg in
    let res = Solver.launch ~spawn:(Api.spawn rt) ~procs:3 ~variant:v ~max_iters:2 tiny in
    ignore (Runtime.run rt);
    ignore (Option.get !res);
    let h = Runtime.history rt in
    [ well_formed, Text (string_of_bool (History.is_well_formed h));
      mixed, Text (string_of_bool (Lattice.is_consistent h Lattice.Mixed)) ]
  in
  let row name matched v = row ((variant, Text name) :: (matches, Text matched) :: check_tiny v) in
  let r_causal = row "handshake+causal" (if causal then "yes" else "NO") Solver.Handshake_causal in
  let r_pram =
    row "handshake+PRAM" (if pram then "yes (unexpected)" else "no (stale reads)")
      Solver.Handshake_pram
  in
  {
    tables =
      [ table ~title:"EXP-F3-PRAM: Fig. 3 with reads weakened to PRAM (Sec. 5.1 warning)"
          [ variant; matches; well_formed; mixed ] [ r_causal; r_pram ] ];
    note =
      "paper claim (Sec. 5.1): with PRAM reads, inconsistent values of the matrix are\n\
       read; the execution is still mixed consistent - the model permits it - but no\n\
       longer equivalent to a sequentially consistent run.";
    json = [];
  }

let claims =
  [
    claim ~section:"Sec. 5.1" "causal reads match the reference, PRAM reads read stale values"
      (fun rows ->
        List.map (fun r -> text r matches) rows = [ "yes"; "no (stale reads)" ]);
    claim ~section:"Sec. 5.1" "both recorded histories are well-formed and mixed consistent"
      (fun rows ->
        List.for_all (fun r -> text r well_formed = "true" && text r mixed = "true") rows);
  ]

let t = { id = "f3pram"; name = "EXP-F3-PRAM"; run; claims }
