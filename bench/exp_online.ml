(* EXP-ONLINE: record-then-check vs the streaming online checker *)

open Harness

(* a phase-disciplined workload: per-round writes, a barrier, PRAM reads
   of the neighbours' fresh values, one lock-protected accumulator
   increment and a closing barrier; every write value is unique so the
   recorded reads-from relation is exact *)
let workload ~procs ~rounds (api : Api.t) =
  let me = api.Api.proc_id in
  for round = 1 to rounds do
    for k = 0 to 3 do
      api.Api.write (Printf.sprintf "o:%d:%d" me k) ((me * 10_000_000) + (round * 10) + k)
    done;
    api.Api.barrier ();
    for j = 0 to procs - 1 do
      ignore (api.Api.read ~label:Op.PRAM (Printf.sprintf "o:%d:%d" j (round mod 4)))
    done;
    api.Api.write_lock "acc";
    let v = api.Api.read "sum" in
    api.Api.write "sum" (v + 1);
    api.Api.write_unlock "acc";
    api.Api.barrier ()
  done

let ops = col "ops" ~key:"ops"
let rounds_c = field "rounds"
let offline_s = col "offline (s)" ~digits:3 ~key:"offline_s"
let online_s = col "online (s)" ~digits:3 ~key:"online_s"
let offline_rate = col "off ops/s" ~key:"offline_ops_per_s"
let online_rate = col "on ops/s" ~key:"online_ops_per_s"
let speedup = col "speedup" ~key:"speedup"
let resident = col "off resident" ~key:"offline_resident_ops"
let window = col "window hw" ~key:"online_window_high_water"
let live = col "live summaries" ~key:"online_live_summaries"
let words = col "words/op" ~digits:1 ~key:"online_minor_words_per_op" ~json_digits:1
let agree = col "agree"
let failures_agree = field "failures_agree"

let run ~quick =
  let procs = 4 in
  (* ops per round: per proc 4 writes + [procs] reads + lock/read/write/
     unlock + 2 barriers *)
  let per_round = procs * (4 + procs + 4 + 2) in
  (* the quick 2,000 size is the full grid's 35-round row, which the CI
     regression guard compares exactly *)
  let sizes = if quick then [ 2_000; 4_000 ] else [ 2_000; 5_000; 10_500; 21_000 ] in
  (* the offline checker retains the whole recorded history and, at
     Mixed on this unique-write workload, replays it through [Online]
     with no stability sweeps, so nothing is reclaimed before the end;
     the closure engine the agreement is checked against holds one n x n
     bit matrix per closure (five under Mixed with four procs). The cap
     bounds both and keeps the rows that BENCH_CORE.json's regression
     guard compares *)
  let offline_cap = if quick then 4_000 else 11_000 in
  let point total =
    let rounds = max 1 (total / per_round) in
    (* the runtime and its host time of [Runtime.run], with the minor
       words allocated on the way: exact for a given binary *)
    let execute ~record ~check_online =
      let w0 = Gc.minor_words () in
      let rt, t =
        time_after
          (fun () ->
            let cfg = { (Config.default ~procs) with record; check_online } in
            let rt = Runtime.create (Engine.create ()) cfg in
            for i = 0 to procs - 1 do
              Api.spawn rt i (workload ~procs ~rounds)
            done;
            rt)
          (fun rt ->
            ignore (Runtime.run rt);
            rt)
      in
      (rt, t, Gc.minor_words () -. w0)
    in
    (* plain execution: the simulation cost with no checking at all *)
    let _, t_plain, w_plain = execute ~record:false ~check_online:false in
    (* offline path: record, then materialize and check post-hoc *)
    let rt_rec, _, _ = execute ~record:true ~check_online:false in
    let h = Runtime.history rt_rec in
    let n = History.length h in
    let offline =
      if n > offline_cap then None
      else
        let off_fail, t = time (fun () -> List.length (Lattice.failures h Lattice.Mixed)) in
        (* the agreement is checked against the closure engine too,
           untimed: [Lattice.failures] here replays the same checker *)
        Some ([ off_fail; List.length (Lattice.closure_failures h Lattice.Mixed) ], t)
    in
    (* online path: streaming-only checker riding the execution; its
       cost is the increment over the plain run, its memory the engine
       window plus the live writer summaries (stability sweeps reclaim
       superseded values during the run) *)
    let rt_on, t_checked, w_checked = execute ~record:false ~check_online:true in
    let live_stats = Online.stats (Option.get (Runtime.online_checker rt_on)) in
    let t_on = Float.max (t_checked -. t_plain) 1e-4 in
    let rate t = Rate (float_of_int n /. Float.max t 1e-9) in
    let on_fail = live_stats.Online.failure_count in
    let offline_cells =
      match offline with
      | Some (off_fails, t) ->
        [ offline_s, Seconds t; offline_rate, rate t; speedup, Speedup (t /. t_on);
          agree, Flag (List.for_all (( = ) on_fail) off_fails) ]
      | None ->
        [ offline_s, Null "(skipped)"; offline_rate, Null "-"; speedup, Null "-";
          agree, Null "-" ]
    in
    row
      (offline_cells
      @ [ ops, Int n; rounds_c, Int rounds; online_s, Seconds t_on; online_rate, rate t_on;
          resident, Int n; window, Int live_stats.Online.max_resident;
          live, Int live_stats.Online.live_summaries;
          words, Float ((w_checked -. w_plain) /. float_of_int n);
          failures_agree,
            Flag
              (match offline with
              | Some (off_fails, _) -> List.for_all (( = ) on_fail) off_fails
              | None -> true) ])
  in
  let runs =
    table ~title:"EXP-ONLINE: offline record-then-check vs streaming checker (4 procs)"
      [ ops; rounds_c; offline_s; online_s; offline_rate; online_rate; speedup; resident;
        window; live; words; agree; failures_agree ]
      (List.map point sizes)
  in
  {
    tables = [ runs ];
    note =
      "the offline path records all n operations and checks them with Lattice.failures,\n\
       which at Mixed replays the recorded history through the same streaming checker,\n\
       with no stability sweeps, so it reclaims nothing before the end; the streaming\n\
       checker validates each read at response time from incremental chain clocks and\n\
       retires operations once their causal past is covered, so its window stays\n\
       bounded while throughput scales. agree: both checkers count the failures the\n\
       closure engine (Lattice.closure_failures, untimed) counts. words/op: minor words\n\
       the checked run allocates beyond the plain run, per operation (exact for a given\n\
       binary).";
    json =
      [ "params",
        Fields
          [ "procs", Int procs; "sizes", Ints sizes; "offline_cap", Int offline_cap;
            "seed", Int bench_seed ];
        "runs", Rows runs ];
  }

let claims =
  [
    claim ~section:"Def. 4"
      "the offline and online checkers count the closure engine's failures wherever both run"
      (every failures_agree);
    claim ~section:"Def. 4" "the online window and live summaries stay flat in run length"
      (fun rows -> same window rows && same live rows);
  ]

let t = { id = "online"; name = "EXP-ONLINE"; run; claims }
