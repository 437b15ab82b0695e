(* Shared experiment plumbing for bench/main.ml: CLI mode flags, the
   BENCH_CORE.json section writer, and the three memory runners every
   experiment goes through. Opened wholesale by the experiments
   ([open Harness]), so the module aliases below are part of the
   surface. *)

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
module T = Mc_util.Tablefmt
module Json = Mc_util.Json
module Lattice = Mc_consistency.Lattice
module Summary = Mc_util.Stats.Summary

let quick = ref false
let selected : string list ref = ref []

let wants name = !selected = [] || List.mem name !selected

(* Cross-checks between two implementations (offline vs online
   failures, pairwise vs detector races) record a disagreement here
   instead of stopping the run; the process exits 1 after every
   selected experiment has run and BENCH_CORE.json is written. *)
let failed_self_checks : string list ref = ref []
let self_check_failed msg = failed_self_checks := msg :: !failed_self_checks

let exit_on_failed_self_checks () =
  if !failed_self_checks <> [] then begin
    List.iter (Printf.eprintf "self-check failed: %s\n") (List.rev !failed_self_checks);
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* BENCH_CORE.json writer                                              *)
(* ------------------------------------------------------------------ *)

(* Experiments append named sections here; the file is written once at
   exit so several experiments can share it. Every workload below is
   seeded with [bench_seed]. *)
let bench_core_sections : (string * string) list ref = ref []
let bench_seed = 42

let bench_core_add name ~params body =
  bench_core_sections :=
    (name, Printf.sprintf "{\n    \"params\": %s,\n%s\n  }" params body)
    :: !bench_core_sections

let write_bench_core () =
  if !bench_core_sections <> [] then begin
    let oc = open_out "BENCH_CORE.json" in
    Printf.fprintf oc
      "{\n\
      \  \"schema_version\": 2,\n\
      \  \"seed\": %d,\n\
      \  \"quick\": %b,\n\
      \  \"argv\": [%s],\n\
       %s\n\
       }\n"
      bench_seed !quick
      (String.concat ", " (List.map Json.quote (List.tl (Array.to_list Sys.argv))))
      (String.concat ",\n"
         (List.rev_map
            (fun (name, body) -> Printf.sprintf "  %s: %s" (Json.quote name) body)
            !bench_core_sections));
    close_out oc;
    print_endline "raw numbers: BENCH_CORE.json"
  end

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
    ?(await_label = Op.Causal) ?(groups = []) ?multicast ?placement ?latency
    ?(observe = false) ?tracer f =
  let engine = Engine.create () in
  let cfg =
    {
      (Config.default ~procs) with
      propagation;
      timestamped_updates = timestamped;
      await_label;
      groups;
      multicast;
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
