(* EXP-SPECTRUM: access latency across the consistency spectrum *)

open Harness

let workload ~label (api : Api.t) =
  let rng = Mc_util.Rng.make (1000 + api.Api.proc_id) in
  let locs = Array.init 8 (fun i -> "s:" ^ string_of_int i) in
  let value = ref (api.Api.proc_id * 10_000) in
  for _ = 1 to 60 do
    let loc = Mc_util.Rng.pick rng locs in
    if Mc_util.Rng.int rng 100 < 25 then begin
      incr value;
      api.Api.write loc !value
    end
    else ignore (api.Api.read ~label loc)
  done;
  api.Api.barrier ()

let memory = col "memory"
let read_wait = col "read wait"
let write_wait = col "write wait"
let total = col "total time"
let msgs = col "msgs"
let bytes = col "bytes"

let run ~quick:_ =
  let procs = 4 in
  let row name (_, (s : Memory.result)) =
    row
      [ memory, Text name; read_wait, Float (mean_wait s "read");
        write_wait, Float (mean_wait s "write"); total, Float s.time; msgs, Int s.messages;
        bytes, Int s.bytes ]
  in
  let spawn_all spawn label =
    for i = 0 to procs - 1 do
      spawn i (workload ~label)
    done
  in
  let pram = run_mixed ~procs (fun spawn -> spawn_all spawn Op.PRAM) in
  let causal = run_mixed ~procs (fun spawn -> spawn_all spawn Op.Causal) in
  let sc memory = Memory.run memory (Config.default ~procs) (fun spawn -> spawn_all spawn Op.Causal) in
  let inval = sc Memory.Invalidate in
  let central = sc Memory.Central in
  {
    tables =
      [ table ~title:"EXP-SPECTRUM: mean access latency across consistency levels"
          [ memory; read_wait; write_wait; total; msgs; bytes ]
          [ row "mixed: PRAM reads" pram; row "mixed: causal reads" causal;
            row "SC write-invalidate" inval; row "SC central server" central ] ];
    note =
      "paper claim (Secs. 1, 3.2): weaker consistency means lower access latency;\n\
       PRAM and causal reads are local, SC reads pay coherence/round-trip costs.";
    json = [];
  }

let claims =
  let weak rows = where memory "mixed: PRAM reads" rows @ where memory "mixed: causal reads" rows
  and sc rows = where memory "SC write-invalidate" rows @ where memory "SC central server" rows in
  [
    claim ~section:"Secs. 1, 3.2" "PRAM and causal reads and writes never wait; SC reads and writes do"
      (fun rows ->
        List.for_all (fun r -> num r read_wait = 0. && num r write_wait = 0.) (weak rows)
        && List.for_all (fun r -> num r read_wait > 0. && num r write_wait > 0.) (sc rows));
    claim ~section:"Secs. 1, 3.2" "the mixed memory is at least 10x faster in total than either SC memory"
      (fun rows ->
        List.for_all
          (fun w -> List.for_all (fun s -> num s total >= 10. *. num w total) (sc rows))
          (weak rows));
  ]

let t = { id = "spectrum"; name = "EXP-SPECTRUM"; run; claims }
