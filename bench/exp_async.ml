(* EXP-ASYNC: asynchronous relaxation under PRAM (Sec. 7) *)

open Harness
module Async = Mc_apps.Async_solver

let size = col "n"
let algorithm = col "algorithm"
let iterations = col "iterations"
let residual = col "residual"
let sim = col "sim time"
let msgs = col "msgs"
let converged = hidden ()
let max_diff = hidden ()

let run ~quick =
  let procs = 4 in
  let point n =
    let problem = Solver.Problem.generate ~seed:42 ~n in
    let truth = Async.solution problem in
    (* synchronous Fig. 2 baseline *)
    let res, s_sync =
      run_mixed ~procs ~timestamped:false (fun spawn ->
          Solver.launch ~spawn ~procs ~variant:Solver.Barrier_pram problem)
    in
    let sync = Option.get !res in
    (* asynchronous chaotic relaxation, PRAM reads, no sync ops at all *)
    let res, s_async =
      run_mixed ~procs ~timestamped:false (fun spawn -> Async.launch ~spawn ~procs problem)
    in
    let a = Option.get !res in
    let maxdiff =
      Mc_apps.Fixed.to_float
        (Array.fold_left max 0 (Array.mapi (fun i v -> abs (v - truth.(i))) a.Async.x))
    in
    [ row
        [ size, Int n; algorithm, Text "synchronous (Fig. 2, barriers)";
          iterations, Int sync.Solver.iterations;
          residual, Float (Mc_apps.Fixed.to_float (Solver.residual problem sync.Solver.x));
          sim, Float s_sync.time; msgs, Int s_sync.messages ];
      row
        [ size, Int n; algorithm, Text "async (chaotic, PRAM, no sync)";
          iterations, Text (Printf.sprintf "%d sweeps" (Array.fold_left max 0 a.Async.sweeps));
          residual, Float (Mc_apps.Fixed.to_float a.Async.residual); sim, Float s_async.time;
          msgs, Int s_async.messages; converged, Flag a.Async.converged;
          max_diff, Float maxdiff ];
      derived
        [ algorithm,
            Text
              (Printf.sprintf "-> async converged: %b, max diff to solution %.4f"
                 a.Async.converged maxdiff) ] ]
  in
  {
    tables =
      [ table ~title:"EXP-ASYNC: asynchronous relaxation converges even with PRAM (Sec. 7)"
          [ size; algorithm; iterations; residual; sim; msgs; converged; max_diff ]
          (List.concat_map point (if quick then [ 12 ] else [ 12; 24 ])) ];
    note =
      "paper claim (Sec. 7): equivalence to SC is not always necessary - asynchronous\n\
       relaxation converges on plain PRAM with no synchronization operations at all.";
    json = [];
  }

let claims =
  let async = "async (chaotic, PRAM, no sync)" in
  [
    claim ~section:"Sec. 7" "asynchronous relaxation converges on PRAM to within 0.001 of the solution"
      (fun rows ->
        where algorithm async rows <> []
        && List.for_all
             (fun r -> flag r converged && num r max_diff <= 0.001)
             (where algorithm async rows));
    claim ~section:"Sec. 7" "its residual is below the synchronous solver's at every size" (fun rows ->
        pairwise algorithm async "synchronous (Fig. 2, barriers)" rows (fun a s ->
            num a residual < num s residual));
  ]

let t = { id = "async"; name = "EXP-ASYNC"; run; claims }
