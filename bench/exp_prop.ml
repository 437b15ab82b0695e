(* EXP-PROP: eager vs lazy vs demand-driven lock propagation (Sec. 6) *)

open Harness

(* a lock name homed at node [home] (lock home = hash mod procs) *)
let lock_homed_at ~procs ~home =
  let rec search i =
    let name = Printf.sprintf "cs%d" i in
    if Hashtbl.hash name mod procs = home then name else search (i + 1)
  in
  search 0

(* processes take turns in a critical section; each writes [writes]
   variables, the next holder reads [reads] of them *)
let workload ~lock ~writes ~reads (api : Api.t) =
  for round = 1 to 4 do
    api.Api.write_lock lock;
    for k = 0 to reads - 1 do
      ignore (api.Api.read ("d:" ^ string_of_int k))
    done;
    for k = 0 to writes - 1 do
      api.Api.write ("d:" ^ string_of_int k) ((round * 100_000) + (api.Api.proc_id * 1000) + k)
    done;
    api.Api.write_unlock lock;
    api.Api.compute 20.
  done;
  api.Api.barrier ()

let set = col "write/read set"
let mode = col "mode"
let sim = col "sim time"
let msgs = col "msgs"
let lock_wait = col "lock wait"
let unlock_wait = col "unlock wait"
let read_wait = col "read wait"

let run ~quick:_ =
  let procs = 4 in
  (* the lock manager and its links are fast; peer-to-peer data links are
     slow, so update propagation - not the lock hand-off - is the
     bottleneck, which is where the three modes differ *)
  let lock = lock_homed_at ~procs ~home:0 in
  let lat = Array.make_matrix procs procs 400. in
  for i = 0 to procs - 1 do
    lat.(i).(i) <- 0.;
    lat.(i).(0) <- 10.;
    lat.(0).(i) <- 10.
  done;
  let latency = Latency.matrix lat in
  let point (case, writes, reads) propagation =
    let _, s =
      run_mixed ~procs ~propagation ~latency (fun spawn ->
          for i = 0 to procs - 1 do
            spawn i (workload ~lock ~writes ~reads)
          done)
    in
    row
      [ set, Text case; mode, Text (Config.propagation_to_string propagation);
        sim, Float s.time; msgs, Int s.messages; lock_wait, Float (mean_wait s "write_lock");
        unlock_wait, Float (mean_wait s "write_unlock"); read_wait, Float (mean_wait s "read") ]
  in
  let cases = [ ("W=12 R=0", 12, 0); ("W=12 R=2", 12, 2); ("W=12 R=12", 12, 12) ] in
  {
    tables =
      [ table ~title:"EXP-PROP: critical-section update propagation (Sec. 6)"
          [ set; mode; sim; msgs; lock_wait; unlock_wait; read_wait ]
          (List.concat_map
             (fun case -> List.map (point case) Config.[ Eager; Lazy; Demand; Entry ])
             cases) ];
    note =
      "paper discussion (Sec. 6): eager pays at release (flush broadcast + acks), lazy\n\
       shifts the wait to the next acquirer, demand-driven blocks only the reads that\n\
       actually touch the written locations. Entry consistency (Sec. 2, Midway) ships\n\
       the guarded values with the lock itself - no broadcasts at all.";
    json = [];
  }

let claims =
  (* the four modes' sim times at each read set, in row order *)
  let by_set rows =
    List.map
      (fun case -> List.map (fun r -> num r sim) (where set case rows))
      (List.sort_uniq compare (List.map (fun r -> text r set) rows))
  in
  let at case m rows = num (List.find (fun r -> text r mode = m) (where set case rows)) sim in
  [
    claim ~section:"Sec. 6" "sim time is eager > lazy >= demand > entry at every read set"
      (fun rows ->
        by_set rows <> []
        && List.for_all
             (function [ e; l; d; n ] -> e > l && l >= d && d > n | _ -> false)
             (by_set rows));
    claim ~section:"Sec. 6" "demand is at least 2x faster than lazy at R=0" (fun rows ->
        at "W=12 R=0" "lazy" rows >= 2. *. at "W=12 R=0" "demand" rows);
    claim ~section:"Sec. 6" "demand is within 1% of lazy when R > 0" (fun rows ->
        List.for_all
          (fun case -> at case "demand" rows >= 0.99 *. at case "lazy" rows)
          [ "W=12 R=2"; "W=12 R=12" ]);
  ]

let t = { id = "prop"; name = "EXP-PROP"; run; claims }
