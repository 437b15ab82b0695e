(* EXP-F4: electromagnetic field computation (Fig. 4) *)

open Harness

let procs_c = col "procs"
let grid = col "grid"
let system = col "system"
let exact = col "exact"
let sim = col "sim time"
let msgs = col "msgs"
let bytes = col "bytes"

let run ~quick =
  let point procs =
    let params = { Em.rows = 4 * procs; cols = 8; steps = (if quick then 4 else 8); seed = 5 } in
    let expected = Em.reference ~procs params in
    let row name (res, (s : Memory.result)) =
      row
        [ procs_c, Int procs; grid, Text (Printf.sprintf "%dx%d" params.Em.rows params.Em.cols);
          system, Text name; exact, Flag ((Option.get !res).Em.checksum = expected.Em.checksum);
          sim, Float s.time; msgs, Int s.messages; bytes, Int s.bytes ]
    in
    let launch spawn = Em.launch ~spawn ~procs params in
    let m = run_mixed ~procs ~timestamped:false launch in
    let sc memory = Memory.run memory (Config.default ~procs) launch in
    let i = sc Memory.Invalidate in
    let c = sc Memory.Central in
    [ row "mixed (PRAM+barriers)" m; row "SC write-invalidate" i; row "SC central server" c;
      derived
        [ system, Text "-> mixed speedup vs invalidate";
          sim, Ratio ((snd i).time /. (snd m).time) ] ]
  in
  {
    tables =
      [ table ~title:"EXP-F4: EM field computation (Fig. 4), mixed vs SC baselines"
          [ procs_c; grid; system; exact; sim; msgs; bytes ]
          (List.concat_map point (if quick then [ 2; 4 ] else [ 2; 4; 8 ])) ];
    note =
      "paper claim (Secs. 1, 5.2): PRAM reads + barriers give the ghost-copy pattern\n\
       without per-access coherence traffic, so the weak memory outperforms SC.";
    json = [];
  }

let claims =
  let faster sc by rows =
    pairwise system "mixed (PRAM+barriers)" sc rows (fun m s -> num s sim >= by *. num m sim)
  in
  [
    claim ~section:"Secs. 1, 5.2" "mixed is at least 10x faster than SC write-invalidate at every size"
      (faster "SC write-invalidate" 10.);
    claim ~section:"Secs. 1, 5.2" "mixed is at least 5x faster than the SC central server at every size"
      (faster "SC central server" 5.);
    claim ~section:"Secs. 1, 5.2" "every system computes the exact field" (every exact);
  ]

let t = { id = "f4"; name = "EXP-F4"; run; claims }
