(* EXP-GROUP: the Section-3.2 consistency spectrum on the solver *)

open Harness

let label = col "read label"
let exact = col "exact result"
let sim = col "sim time"
let msgs = col "msgs"

let run ~quick:_ =
  let procs = 4 in
  let problem = Solver.Problem.generate ~seed:42 ~n:8 in
  let max_iters = 4 in
  let expected = Solver.reference ~variant:Solver.Handshake_causal ~max_iters problem in
  let run name variant ?await_label ?(groups = []) () =
    let res, s =
      run_mixed ~procs ?await_label ~groups ~latency:(Exp_f3pram.adverse_latency procs)
        (fun _rt spawn -> Solver.launch ~spawn ~procs ~variant ~max_iters problem)
    in
    row
      [ label, Text name;
        exact,
          Text (if (Option.get !res).Solver.x = expected.Solver.x then "yes" else "no (stale reads)");
        sim, Float s.time; msgs, Int s.messages ]
  in
  let pram = run "PRAM reads" Solver.Handshake_pram ~await_label:Op.PRAM () in
  let group =
    run "group {coordinator, self} reads" Solver.Handshake_group
      ~groups:(Solver.solver_groups ~procs) ()
  in
  let causal = run "causal reads" Solver.Handshake_causal () in
  {
    tables =
      [ table
          ~title:"EXP-GROUP: handshaking solver across the Sec. 3.2 spectrum (adverse latency)"
          [ label; exact; sim; msgs ] [ pram; group; causal ] ];
    note =
      "paper (Sec. 3.2): \"the definition can be easily generalized to maintain\n\
       causality across an arbitrary group of processes\"; the smallest useful group -\n\
       each worker with the coordinator - already restores correctness, because all\n\
       handshake causality flows through the coordinator.";
    json = [];
  }

let claims =
  [
    claim ~section:"Sec. 3.2" "PRAM reads are inexact; group and causal reads are exact" (fun rows ->
        List.map (fun r -> text r exact) rows = [ "no (stale reads)"; "yes"; "yes" ]);
    claim ~section:"Sec. 3.2" "group reads cost the same sim time as causal reads" (fun rows ->
        match rows with [ _; g; c ] -> num g sim = num c sim | _ -> false);
  ]

let t = { id = "group"; name = "EXP-GROUP"; run; claims }
