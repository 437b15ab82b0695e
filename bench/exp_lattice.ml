(* EXP-LATTICE: one workload checked across the model ladder *)

open Harness

let model = col "model" ~key:"model"
let failures = col "failures" ~key:"failures"
let consistent = col "consistent"
let consistent_key = field "consistent"
let cold = col "cold (s)" ~key:"cold_s"
let warm = col "warm (s)" ~key:"warm_s"
let warm_rate = col "warm ops/s"
let streamable = field "streamable"
let online = col "online (s)" ~key:"online_s"

(* one phase-disciplined execution, checked at every point of the
   lattice ladder. Verdict monotonicity shows directly: failure sets
   grow with model strength. Cost splits into a cold pass (on a freshly
   materialized history, so no row reuses closures an earlier row
   built) and warm passes; streamable points, which [Lattice.failures]
   decides by one online replay on this workload, are also timed as a
   bare [Online.check]. *)
let run ~quick =
  let procs = 4 in
  let rounds = if quick then 8 else 40 in
  let reps = if quick then 3 else 5 in
  let rt = Runtime.create (Engine.create ()) { (Config.default ~procs) with record = true } in
  for i = 0 to procs - 1 do
    Api.spawn rt i (Exp_online.workload ~procs ~rounds)
  done;
  ignore (Runtime.run rt);
  let n = History.length (Runtime.history rt) in
  let point m =
    let h = Runtime.history rt in
    let fs, t_cold = time (fun () -> Lattice.failures h m) in
    let _, t_warm = time ~reps (fun () -> Lattice.failures h m) in
    let s = Online.supports m in
    row
      [ model, Text (Lattice.to_string m); failures, Int (List.length fs);
        consistent, Text (if fs = [] then "yes" else "no"); consistent_key, Flag (fs = []);
        cold, Seconds t_cold; warm, Seconds t_warm;
        warm_rate, Rate (float_of_int n /. Float.max t_warm 1e-9); streamable, Flag s;
        online,
          (if s then Seconds (snd (time ~reps (fun () -> Online.check ~model:m h)))
           else Null "(offline only)") ]
  in
  let runs =
    table
      ~title:(Printf.sprintf "EXP-LATTICE: one %d-op execution checked across the model ladder" n)
      [ model; failures; consistent; consistent_key; cold; warm; warm_rate; streamable; online ]
      (List.map point Lattice.ladder)
  in
  {
    tables = [ runs ];
    note =
      "models are values: one read rule checks every ladder point.\n\
       failure sets grow monotonically with model strength (session ... linearizable);\n\
       streamable points (session, PRAM, mixed, causal) are one online chain-clock\n\
       replay, cold or warm; at the witness points the cold pass builds the closures\n\
       on a fresh history and memoizes the shared ones (one per axiom set), and warm\n\
       passes re-verdict against that memo but rebuild the reader-scoped ones (slow,\n\
       processor: one reader at a time, dropped after its reads).";
    json =
      [ "params",
        Fields
          [ "procs", Int procs; "rounds", Int rounds; "reps", Int reps; "ops", Int n;
            "seed", Int bench_seed ];
        "runs", Rows runs ];
  }

let claims =
  [
    claim "failure counts never fall along the ladder" (fun rows ->
        let counts = List.map (fun r -> num r failures) rows in
        List.sort compare counts = counts);
  ]

let t = { id = "lattice"; name = "EXP-LATTICE"; run; claims }
