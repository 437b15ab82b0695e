(* Shared experiment plumbing: the three memory runners every
   experiment goes through. Opened wholesale by the experiments
   ([open Harness]), so the module aliases below and the experiment
   shape ([Exp], included) are part of the surface. *)

module Engine = Mc_sim.Engine
module Runtime = Mc_dsm.Runtime
module Config = Mc_dsm.Config
module Api = Mc_dsm.Api
module Network = Mc_net.Network
module Latency = Mc_net.Latency
module Op = Mc_history.Op
module Central = Mc_baselines.Sc_central
module Inval = Mc_baselines.Sc_invalidate
module Solver = Mc_apps.Linear_solver
module Em = Mc_apps.Em_field
module Sparse = Mc_apps.Sparse_spd
module Cholesky = Mc_apps.Cholesky
module Placement = Mc_placement.Placement
module Lattice = Mc_consistency.Lattice
module Summary = Mc_util.Stats.Summary
module History = Mc_history.History
module Online = Mc_consistency.Online
module Replica = Mc_dsm.Replica
module Metrics = Mc_obs.Metrics
module Obs_trace = Mc_obs.Trace

include Exp

(* the seed BENCH_CORE.json records; the seeded workloads use 42 *)
let bench_seed = 42

(* ------------------------------------------------------------------ *)
(* Runners                                                             *)
(* ------------------------------------------------------------------ *)

type stats = {
  time : float;
  messages : int;
  bytes : int;
  waits : (string * Summary.t) list;
}

let run_mixed ?(procs = 4) ?(propagation = Config.Lazy) ?(timestamped = true)
    ?(await_label = Op.Causal) ?(groups = []) ?placement ?latency
    ?(observe = false) ?tracer f =
  let engine = Engine.create () in
  let cfg =
    {
      (Config.default ~procs) with
      propagation;
      timestamped_updates = timestamped;
      await_label;
      groups;
      placement;
      observe;
      tracer;
    }
  in
  let rt = Runtime.create engine ?latency cfg in
  let out = f rt (Api.spawn rt) in
  let time = Runtime.run rt in
  let net = Runtime.network rt in
  ( out,
    {
      time;
      messages = Network.messages_sent net;
      bytes = Network.bytes_sent net;
      waits = Runtime.wait_summaries rt;
    } )

let run_central ?(procs = 4) f =
  let engine = Engine.create () in
  let m = Central.create engine ~procs () in
  let out = f (Central.spawn m) in
  let time = Central.run m in
  ( out,
    {
      time;
      messages = Central.messages_sent m;
      bytes = Central.bytes_sent m;
      waits = Central.wait_summaries m;
    } )

let run_inval ?(procs = 4) f =
  let engine = Engine.create () in
  let m = Inval.create engine ~procs () in
  let out = f (Inval.spawn m) in
  let time = Inval.run m in
  ( out,
    {
      time;
      messages = Inval.messages_sent m;
      bytes = Inval.bytes_sent m;
      waits = Inval.wait_summaries m;
    } )

let mean_wait stats name =
  match List.assoc_opt name stats.waits with
  | Some s -> Summary.mean s
  | None -> 0.
