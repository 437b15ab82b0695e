(* EXP-BARRIER: barrier cost vs process count (Sec. 6) *)

open Harness

let procs_c = col "procs"
let mixed_time = col "mixed time/episode"
let mixed_wait = col "mixed barrier wait"
let mixed_msgs = col "mixed msgs/episode"
let sc_time = col "SC time/episode"
let sc_msgs = col "SC msgs/episode"

let run ~quick =
  let episodes = 6 in
  let point procs =
    let workload (api : Api.t) =
      for round = 1 to episodes do
        api.Api.write ("b:" ^ string_of_int api.Api.proc_id) ((round * 100) + api.Api.proc_id);
        api.Api.barrier ()
      done
    in
    let spawn_all spawn =
      for i = 0 to procs - 1 do
        spawn i workload
      done
    in
    let _, m = run_mixed ~procs ~timestamped:false spawn_all in
    let _, c = Memory.(run Central (Config.default ~procs) spawn_all) in
    let per x = Float (x /. float_of_int episodes) in
    row
      [ procs_c, Int procs; mixed_time, per m.time; mixed_wait, Float (mean_wait m "barrier");
        mixed_msgs, Int (m.messages / episodes); sc_time, per c.time;
        sc_msgs, Int (c.messages / episodes) ]
  in
  {
    tables =
      [ table ~title:"EXP-BARRIER: count-vector barrier (Sec. 6) vs SC-central equivalent"
          [ procs_c; mixed_time; mixed_wait; mixed_msgs; sc_time; sc_msgs ]
          (List.map point (if quick then [ 2; 4; 8 ] else [ 2; 4; 8; 16 ])) ];
    note =
      "the update-count barrier lets post-barrier reads proceed as soon as the counted\n\
       updates arrive; an SC memory serializes every access at the server instead.";
    json = [];
  }

let claims =
  [
    claim ~section:"Sec. 6" "the mixed barrier episode is cheaper than the SC server's at every size"
      (fun rows -> List.for_all (fun r -> num r mixed_time < num r sc_time) rows);
    claim ~section:"Sec. 6" "the mixed episode time grows at most 2x across the sweep" (fun rows ->
        let ts = List.map (fun r -> num r mixed_time) rows in
        List.fold_left Float.max 0. ts <= 2. *. List.fold_left Float.min infinity ts);
  ]

let t = { id = "barrier"; name = "EXP-BARRIER"; run; claims }
