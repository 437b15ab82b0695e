module Config = Mc_dsm.Config
module Runtime = Mc_dsm.Runtime
module Network = Mc_net.Network
module Online = Mc_consistency.Online

type t = Mixed | Central | Invalidate

type result = {
  time : float;
  messages : int;
  bytes : int;
  waits : (string * Mc_util.Stats.Summary.t) list;
  history : Mc_history.History.t option;
  checker : Online.t option;
  runtime : Runtime.t option;
}

(* an SC memory records whenever the checker runs: it replays the
   history after the run *)
let run_sc (module M : Sc_core.MEMORY) (cfg : Config.t) launch =
  if cfg.placement <> None then
    invalid_arg "sharded placement requires the mixed memory system";
  let record = cfg.record || cfg.check_online in
  let m = M.create (Mc_sim.Engine.create ()) ~record ~procs:cfg.procs () in
  let out = launch (M.spawn m) in
  let time = M.run m in
  let h = if record then Some (M.history m) else None in
  ( out,
    {
      time;
      messages = M.messages_sent m;
      bytes = M.bytes_sent m;
      waits = M.wait_summaries m;
      history = (if cfg.record then h else None);
      checker =
        (if cfg.check_online then
           Option.map (Online.check ?points:(Option.map (fun m -> [ m ]) cfg.check_model)) h
         else None);
      runtime = None;
    } )

let run ?latency memory (cfg : Config.t) launch =
  match memory with
  | Mixed ->
    let rt = Runtime.create (Mc_sim.Engine.create ()) ?latency cfg in
    let out = launch (Mc_dsm.Api.spawn rt) in
    let time = Runtime.run rt in
    let net = Runtime.network rt in
    ( out,
      {
        time;
        messages = Network.messages_sent net;
        bytes = Network.bytes_sent net;
        waits = Runtime.wait_summaries rt;
        history = (if cfg.record then Some (Runtime.history rt) else None);
        checker = Runtime.online_checker rt;
        runtime = Some rt;
      } )
  | Central -> run_sc (module Sc_central) cfg launch
  | Invalidate -> run_sc (module Sc_invalidate) cfg launch
