(* EXP-LINT: race-detector throughput vs the pairwise Theorem-1 scan *)

open Harness
module Recorder = Mc_history.Recorder

(* a disciplined application-shaped workload: lock-protected shared
   counters, private per-process data, barrier phases, plus one
   deliberate unprotected conflict so both analyses report a race *)
let workload ~procs ~ops_per_proc =
  let r = Recorder.create ~procs () in
  let record ?sync_seq p kind = ignore (Recorder.record r ~proc:p ?sync_seq kind) in
  let next = ref 0 in
  let fresh () =
    incr next;
    !next
  in
  for k = 0 to ops_per_proc - 1 do
    for p = 0 to procs - 1 do
      match k mod 8 with
      | 0 ->
        let lock = "m:" ^ string_of_int (k mod 4) and loc = "s:" ^ string_of_int (k mod 4) in
        record p ~sync_seq:(Recorder.grant_seq r lock) (Op.Write_lock lock);
        record p (Op.Write { loc; value = fresh () });
        record p ~sync_seq:(Recorder.grant_seq r lock) (Op.Write_unlock lock)
      | 5 when k = 5 && p <= 1 ->
        (* the only unprotected conflicting accesses in the history *)
        record p (Op.Write { loc = "racy"; value = fresh () })
      | 7 when k mod 16 = 15 -> record p (Op.Barrier (k / 16))
      | m when m < 4 ->
        record p (Op.Write { loc = Printf.sprintf "p:%d:%d" p (k mod 7); value = fresh () })
      | _ ->
        record p (Op.Read { loc = Printf.sprintf "p:%d:%d" p (k mod 7); label = Op.PRAM; value = 0 })
    done
  done;
  Recorder.history r

let ops = col "ops"
let races = col "races"
let pairwise_s = col "pairwise (s)" ~digits:3
let detector_s = col "detector (s)" ~digits:3
let speedup = col "speedup"
let agree = col "agree"

let run ~quick =
  let procs = 4 in
  (* the pairwise scan needs the transitive closure of the causality
     relation, an n x n bit matrix, plus an O(n^2) pair enumeration; cap
     the sizes it runs at to bound that memory and time *)
  let sizes, pairwise_cap =
    if quick then ([ 400; 1_000; 2_000; 10_000 ], 2_000)
    else ([ 1_000; 2_500; 5_000; 10_000; 20_000; 40_000 ], 13_000)
  in
  let point total_ops =
    let h = workload ~procs ~ops_per_proc:(total_ops / procs) in
    let n = History.length h in
    let detect, t_detect = time (fun () -> Mc_analysis.Race.detect h) in
    let fast_pairs = Mc_analysis.Race.race_pairs detect in
    let pairwise =
      if n > pairwise_cap then [ pairwise_s, Null "(skipped)"; speedup, Null "-"; agree, Null "-" ]
      else
        let report, t = time (fun () -> Mc_consistency.Commute.theorem1_report h) in
        [ pairwise_s, Seconds t; speedup, Speedup (t /. t_detect);
          agree, Flag (report.Mc_consistency.Commute.non_commuting_pairs = fast_pairs) ]
    in
    row
      ([ ops, Int n; races, Int (List.length fast_pairs); detector_s, Seconds t_detect ]
      @ pairwise)
  in
  {
    tables =
      [ table ~title:"EXP-LINT: race detection, pairwise Theorem-1 scan vs lockset+HB clocks"
          [ ops; races; pairwise_s; detector_s; speedup; agree ]
          (List.map point sizes) ];
    note =
      "the pairwise scan closes the causality relation transitively (an n x n bit\n\
       matrix) before checking every operation pair, quadratic in history length;\n\
       the detector derives happens-before chain clocks from the covering relations\n\
       and screens lock-protected locations with Eraser candidate locksets, so it\n\
       keeps scaling past the sizes where the pairwise scan runs out of memory.";
    json = [];
  }

let claims =
  [
    claim ~section:"Thm. 1" "the detector finds the pairwise scan's race pairs wherever it runs"
      (fun rows -> List.for_all (fun r -> cell r agree <> Flag false) rows);
  ]

let t = { id = "lint"; name = "EXP-LINT"; run; claims }
