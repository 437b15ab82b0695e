(* Shared experiment plumbing. Opened wholesale by the experiments
   ([open Harness]), so the module aliases below and the experiment
   shape ([Exp], included) are part of the surface. *)

module Engine = Mc_sim.Engine
module Runtime = Mc_dsm.Runtime
module Config = Mc_dsm.Config
module Api = Mc_dsm.Api
module Network = Mc_net.Network
module Latency = Mc_net.Latency
module Op = Mc_history.Op
module Memory = Mc_baselines.Memory
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

(* the mixed runtime's configuration the experiments share; every run,
   on any memory, goes through [Memory.run] *)
let run_mixed ?(procs = 4) ?(propagation = Config.Lazy) ?(timestamped = true)
    ?(await_label = Op.Causal) ?(groups = []) ?placement ?latency
    ?(observe = false) ?tracer f =
  Memory.run ?latency Memory.Mixed
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
    f

let mean_wait (s : Memory.result) name =
  match List.assoc_opt name s.waits with
  | Some s -> Summary.mean s
  | None -> 0.
