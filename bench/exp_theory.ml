(* EXP-THEORY: Theorem 1 / corollaries on recorded executions *)

open Harness

let program = col "program"
let ops = col "ops"
let well_formed = col "well-formed"
let mixed = col "mixed"
let sc = col "SC"
let premise = col "class/premise"

let report name h class_holds =
  let sc_verdict =
    match Mc_consistency.Sequential.is_sequentially_consistent ~max_states:300_000 h with
    | Mc_consistency.Sequential.Consistent -> "yes"
    | Mc_consistency.Sequential.Inconsistent -> "no"
    | Mc_consistency.Sequential.Unknown -> "search bound"
  in
  row
    [ program, Text name; ops, Int (History.length h);
      well_formed, Text (string_of_bool (History.is_well_formed h));
      mixed, Text (string_of_bool (Lattice.is_consistent h Lattice.Mixed)); sc, Text sc_verdict;
      premise, Text (string_of_bool class_holds) ]

(* [f]'s result and the history of a recording runtime on [procs]
   processes, whose program [f] spawns *)
let recorded procs f =
  let rt = Runtime.create (Engine.create ()) { (Config.default ~procs) with record = true } in
  let out = f rt in
  ignore (Runtime.run rt);
  (out, Runtime.history rt)

let run ~quick:_ =
  (* 1. entry-consistent random program (Corollary 1) *)
  let (), h =
    recorded 2 (fun rt ->
        for i = 0 to 1 do
          Runtime.spawn_process rt i (fun p ->
              for round = 1 to 2 do
                Runtime.write_lock p "g";
                Runtime.write p "x" ((i * 100) + round);
                ignore (Runtime.read p "x");
                Runtime.write_unlock p "g"
              done)
        done)
  in
  let cor1 =
    report "entry-consistent + causal reads (Cor. 1)" h
      (Mc_consistency.Program_class.is_entry_consistent h)
  in
  (* 2. PRAM-consistent phase program (Corollary 2) *)
  let (), h =
    recorded 3 (fun rt ->
        for i = 0 to 2 do
          Runtime.spawn_process rt i (fun p ->
              for round = 1 to 2 do
                Runtime.write p (Printf.sprintf "v:%d" i) ((round * 10) + i);
                Runtime.barrier p;
                for j = 0 to 2 do
                  ignore (Runtime.read p ~label:Op.PRAM (Printf.sprintf "v:%d" j))
                done;
                Runtime.barrier p
              done)
        done)
  in
  let cor2 =
    report "PRAM-consistent phases (Cor. 2)" h
      (Mc_consistency.Program_class.is_pram_consistent h)
  in
  (* 3. tiny Fig. 3 handshake (Theorem 1 premises) *)
  let tiny = Solver.Problem.generate ~seed:7 ~n:2 in
  let res, h =
    recorded 2 (fun rt ->
        Solver.launch ~spawn:(Api.spawn rt) ~procs:2 ~variant:Solver.Handshake_causal
          ~max_iters:2 tiny)
  in
  ignore (Option.get !res);
  let thm1 =
    report "Fig. 3 handshake round (Thm. 1)" h (Mc_consistency.Commute.theorem1_holds h)
  in
  {
    tables =
      [ table ~title:"EXP-THEORY: consistency checking of recorded executions"
          [ program; ops; well_formed; mixed; sc; premise ] [ cor1; cor2; thm1 ] ];
    note =
      "Theorem 1 and Corollaries 1-2: executions of the disciplined program classes\n\
       are sequentially consistent; the checkers verify this on recorded runs.";
    json = [];
  }

let claims =
  [
    claim ~section:"Thm. 1, Cors. 1-2"
      "every recorded execution is well-formed, mixed consistent, SC and in its class"
      (fun rows ->
        List.length rows = 3
        && List.for_all
             (fun r ->
               text r well_formed = "true" && text r mixed = "true" && text r sc = "yes"
               && text r premise = "true")
             rows);
  ]

let t = { id = "theory"; name = "EXP-THEORY"; run; claims }
