(* EXP-F2F3: linear solver, barriers (Fig. 2) vs handshaking (Fig. 3) *)

open Harness

let workers = col "workers"
let size = col "n"
let variant = col "variant"
let iters = col "iters"
let exact = col "exact"
let sim = col "sim time"
let msgs = col "msgs"
let bytes = col "bytes"

let run ~quick =
  let sweeps =
    if quick then [ (3, 16); (5, 16) ] else [ (3, 16); (5, 16); (9, 32); (9, 64) ]
  in
  let point (procs, n) =
    let problem = Solver.Problem.generate ~seed:42 ~n in
    let run name v timestamped =
      let res, s =
        run_mixed ~procs ~timestamped (fun spawn ->
            Solver.launch ~spawn ~procs ~variant:v problem)
      in
      let r = Option.get !res in
      let expected = Solver.reference ~variant:v problem in
      ( s,
        row
          [ workers, Int (procs - 1); size, Int n; variant, Text name;
            iters, Int r.Solver.iterations; exact, Flag (r.Solver.x = expected.Solver.x);
            sim, Float s.time; msgs, Int s.messages; bytes, Int s.bytes ] )
    in
    (* Fig. 2 is PRAM-consistent: updates need no vector timestamps *)
    let sb, rb = run "barrier+PRAM" Solver.Barrier_pram false in
    let sh, rh = run "handshake+causal" Solver.Handshake_causal true in
    [ rb; rh;
      derived
        [ variant, Text "-> barrier speedup"; sim, Ratio (sh.time /. sb.time);
          msgs, Ratio (float_of_int sh.messages /. float_of_int sb.messages) ] ]
  in
  {
    tables =
      [ table ~title:"EXP-F2F3: iterative solver, Fig. 2 (barriers) vs Fig. 3 (handshaking)"
          [ workers; size; variant; iters; exact; sim; msgs; bytes ]
          (List.concat_map point sweeps) ];
    note = "paper claim (Sec. 7): the barrier version outperforms the handshaking version.";
    json = [];
  }

let claims =
  let pairs = pairwise variant "barrier+PRAM" "handshake+causal" in
  [
    claim ~section:"Sec. 7" "barrier sends fewer messages and bytes at every size" (fun rows ->
        pairs rows (fun b h -> num b msgs < num h msgs && num b bytes < num h bytes));
    claim ~section:"Sec. 7"
      "handshaking is faster at 2 and 4 workers, the barrier from 8 (crossover between 4 and 8)"
      (fun rows -> pairs rows (fun b h -> (num b sim < num h sim) = (num b workers >= 8.)));
    claim ~section:"Sec. 7" "both variants are exact at every size" (every exact);
  ]

let t = { id = "f2f3"; name = "EXP-F2F3"; run; claims }
