(* EXP-MULTICAST: subscriber routing + count-vector barriers (Sec. 6) *)

open Harness

let procs_c = col "procs"
let routing = col "routing"
let exact = col "exact"
let sim = col "sim time"
let msgs = col "msgs"
let bytes = col "bytes"

let run ~quick =
  let point procs =
    let params = { Em.rows = 4 * procs; cols = 8; steps = (if quick then 4 else 8); seed = 5 } in
    let expected = Em.reference ~procs params in
    let run name routed =
      let res, s =
        run_mixed ~procs ~timestamped:false
          ?placement:(if routed then Some (Em.placement ~procs) else None)
          (fun spawn -> Em.launch ~spawn ~procs params)
      in
      ( s,
        row
          [ procs_c, Int procs; routing, Text name;
            exact, Flag ((Option.get !res).Em.checksum = expected.Em.checksum);
            sim, Float s.time; msgs, Int s.messages; bytes, Int s.bytes ] )
    in
    let s_b, r_b = run "broadcast updates" false in
    let s_m, r_m = run "subscriber multicast" true in
    [ r_b; r_m;
      derived
        [ routing, Text "-> message reduction"; sim, Ratio (s_b.time /. s_m.time);
          msgs, Ratio (float_of_int s_b.messages /. float_of_int s_m.messages) ] ]
  in
  {
    tables =
      [ table
          ~title:"EXP-MULTICAST: subscriber update routing + count-vector barriers (Sec. 6)"
          [ procs_c; routing; exact; sim; msgs; bytes ]
          (List.concat_map point (if quick then [ 4 ] else [ 2; 4; 8 ])) ];
    note =
      "paper (Sec. 6): \"the overhead of broadcasting messages for each update ... may\n\
       be avoided by making optimizations based on the patterns of accesses to shared\n\
       variables\"; with subscriber routing the barrier switches to the paper's\n\
       update-count vectors, since vector timestamps no longer apply.";
    json = [];
  }

let claims =
  let pairs = pairwise routing "broadcast updates" "subscriber multicast" in
  [
    claim ~section:"Sec. 6" "subscriber routing sends fewer messages at every size" (fun rows ->
        pairs rows (fun b m -> num m msgs < num b msgs));
    claim ~section:"Sec. 6" "its message reduction grows with the process count" (fun rows ->
        let b = where routing "broadcast updates" rows
        and m = where routing "subscriber multicast" rows in
        List.length b = List.length m
        &&
        let reductions = List.map2 (fun b m -> num b msgs /. num m msgs) b m in
        List.sort compare reductions = reductions);
    claim ~section:"Sec. 6" "routed and broadcast runs are exact" (every exact);
  ]

let t = { id = "multicast"; name = "EXP-MULTICAST"; run; claims }
