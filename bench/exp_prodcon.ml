(* EXP-PRODCON: awaits vs locks for producer/consumer (Sec. 1) *)

open Harness
module Pipeline = Mc_apps.Pipeline

let pipeline = col "pipeline"
let impl_c = col "implementation"
let exact = col "exact"
let sim = col "sim time"
let msgs = col "msgs"
let rate = col "items/ms"

let run ~quick =
  let cases = if quick then [ (3, 40, 4) ] else [ (2, 60, 4); (4, 60, 4); (4, 60, 1) ] in
  let point (procs, items, slots) impl =
    let params = { Pipeline.items; slots; work = 5.0 } in
    let expected = Pipeline.reference ~procs params in
    let res, s = run_mixed ~procs (fun _rt spawn -> Pipeline.launch ~spawn ~procs ~impl params) in
    row
      [ pipeline, Text (Printf.sprintf "%d stages, %d items, window %d" procs items slots);
        impl_c, Text (Pipeline.impl_to_string impl);
        exact, Flag ((Option.get !res).Pipeline.checksum = expected.Pipeline.checksum);
        sim, Float s.time; msgs, Int s.messages;
        rate, Float (float_of_int items /. s.time *. 1000.) ]
  in
  {
    tables =
      [ table ~title:"EXP-PRODCON: pipeline streams, awaits vs locks+polling (Sec. 1)"
          [ pipeline; impl_c; exact; sim; msgs; rate ]
          (List.concat_map
             (fun case -> List.map (point case) Pipeline.[ Await_based; Lock_based ])
             cases) ];
    note =
      "paper claim (Sec. 1): \"await operations are useful for producer/consumer type\n\
       of interactions\" - without them the bounded buffer degenerates to lock-guarded\n\
       polling, paying a lock-manager round trip per emptiness check.";
    json = [];
  }

let claims =
  let pairs =
    pairwise impl_c
      (Pipeline.impl_to_string Pipeline.Await_based)
      (Pipeline.impl_to_string Pipeline.Lock_based)
  in
  [
    claim ~section:"Sec. 1" "awaits are at least 2x faster than locks + polling in every pipeline"
      (fun rows -> pairs rows (fun a l -> num l sim >= 2. *. num a sim));
    claim ~section:"Sec. 1" "awaits send fewer messages in every pipeline" (fun rows ->
        pairs rows (fun a l -> num a msgs < num l msgs));
    claim ~section:"Sec. 1" "both implementations are exact" (every exact);
  ]

let t = { id = "prodcon"; name = "EXP-PRODCON"; run; claims }
