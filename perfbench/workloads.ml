(* The four workloads, driven through the library's public entry points.

   Each workload turns a seed into inputs (set-up), runs its timed phase,
   and checks its outputs against the app's sequential reference. The
   seed draws the numeric inputs and the network latencies; the shape
   that decides how much work a run does (matrix sparsity pattern,
   system size, placement) is fixed per workload, so runs on different
   seeds do the same amount of work and their timings are comparable. *)

module Engine = Mc_sim.Engine
module Runtime = Mc_dsm.Runtime
module Config = Mc_dsm.Config
module Api = Mc_dsm.Api
module Network = Mc_net.Network
module Latency = Mc_net.Latency
module Rng = Mc_util.Rng
module Op = Mc_history.Op
module History = Mc_history.History
module Placement = Mc_placement.Placement
module Solver = Mc_apps.Linear_solver
module Sparse = Mc_apps.Sparse_spd
module Cholesky = Mc_apps.Cholesky
module Fixed = Mc_apps.Fixed
module Online = Mc_consistency.Online
module Lattice = Mc_consistency.Lattice
module Analysis = Mc_analysis.Analysis

type size = Full | Tiny

(* How set-up and run reach the library. The untraced runs use [plain];
   the traced run wraps each layer call in a span, observes the
   network, and hands the app fibers an instrumented [Api.t]. *)
type probe = {
  span : 'a. string -> (unit -> 'a) -> 'a;
  attach : Runtime.t -> unit;  (** called right after [Runtime.create] *)
  spawn : Runtime.t -> int -> (Api.t -> unit) -> unit;
}

let plain = { span = (fun _ f -> f ()); attach = ignore; spawn = Api.spawn }

(* [Timed] is the workload as benchmarked; [Checker_off] drops the
   online checker (the baseline of [online.check_s]); [Recorded] also
   materializes the history so the traced run can replay it. *)
type mode = Timed | Checker_off | Recorded

type sim = { sim_time_us : float; messages : int; bytes : int; events : int }

type outcome = {
  ops : int;  (** operations attempted *)
  failed : int;
  errors : string list;  (** failed output checks, for the log *)
}

type instance = {
  rt : Runtime.t;  (** the simulated run; on check-offline the recording *)
  run : unit -> unit;  (** the timed phase *)
  check : unit -> outcome;  (** output checks, after [run] *)
  history : (unit -> History.t) option;
      (** a fresh materialization, when the run records *)
  counts : unit -> (string * float) list;
      (** per-layer counts only this workload produces, after [check] *)
}

type t = { name : string; setup : probe -> seed:int -> mode:mode -> instance }

(* A run whose result differs from the sequential reference fails every
   one of its operations; otherwise each read a checker rejected is one
   failed operation. *)
let failed_ops ~ops ~exact ~rejected = if exact then min ops rejected else ops

let sim_of rt =
  let net = Runtime.network rt in
  {
    sim_time_us = Engine.now (Runtime.engine rt);
    messages = Network.messages_sent net;
    bytes = Network.bytes_sent net;
    events = Engine.events_processed (Runtime.engine rt);
  }

let op_total rt = List.fold_left (fun acc (_, n) -> acc + n) 0 (Runtime.op_counts rt)

(* the runtime's default latency model, drawn from the run's seed *)
let latency seed = Latency.uniform (Rng.make seed) ~lo:30. ~hi:70.

let create probe ~seed cfg =
  let rt =
    probe.span "runtime.create" (fun () ->
        Runtime.create (Engine.create ()) ~latency:(latency seed) cfg)
  in
  probe.attach rt;
  rt

let online_rejected rt =
  match Runtime.online_checker rt with
  | Some c -> (Online.stats c).Online.failure_count
  | None -> 0

let outcome ~ops ~exact ~rejected ~errors =
  let errors =
    (if exact then [] else [ "result differs from the sequential reference" ])
    @ (if rejected > 0 then [ Printf.sprintf "%d reads rejected" rejected ] else [])
    @ errors
  in
  { ops; failed = failed_ops ~ops ~exact ~rejected; errors }

let no_counts () = [ ("lattice.failures", 0.); ("analysis.errors", 0.) ]

(* ------------------------------------------------------------------ *)
(* solver-online: Fig. 3 handshake solver, streaming checker on        *)
(* ------------------------------------------------------------------ *)

let solver_online size =
  let n, workers = match size with Full -> (96, 8) | Tiny -> (8, 2) in
  let procs = workers + 1 in
  let variant = Solver.Handshake_causal in
  let setup probe ~seed ~mode =
    let problem =
      probe.span "apps.generate" (fun () -> Solver.Problem.generate ~seed ~n)
    in
    let rt =
      create probe ~seed
        {
          (Config.default ~procs) with
          check_online = mode <> Checker_off;
          record = mode = Recorded;
        }
    in
    let result =
      probe.span "runtime.spawn" (fun () ->
          Solver.launch ~spawn:(probe.spawn rt) ~procs ~variant problem)
    in
    {
      rt;
      run = (fun () -> ignore (probe.span "runtime.run" (fun () -> Runtime.run rt)));
      check =
        (fun () ->
          let expected = Solver.reference ~variant problem in
          let exact =
            match !result with
            | Some r -> r.Solver.x = expected.Solver.x
            | None -> false
          in
          outcome ~ops:(op_total rt) ~exact ~rejected:(online_rejected rt)
            ~errors:[]);
      history =
        (if mode = Recorded then Some (fun () -> Runtime.history rt) else None);
      counts = no_counts;
    }
  in
  { name = Spec.solver; setup }

(* ------------------------------------------------------------------ *)
(* Cholesky inputs                                                     *)
(* ------------------------------------------------------------------ *)

(* The sparsity pattern (and with it the fill, the op count and the
   message count) is that of [mcdsm cholesky]'s default seed; the run's
   seed redraws the numeric entries, keeping the matrix diagonally
   dominant as [Sparse_spd.generate] does. *)
let cholesky_inputs ~seed ~n =
  let shape = Sparse.generate ~seed:Spec.default_seed ~n ~density:0.2 in
  let rng = Rng.make seed in
  let values = Array.map Array.copy shape.Sparse.values in
  for i = 0 to n - 1 do
    for j = 0 to i - 1 do
      if shape.Sparse.values.(i).(j) <> 0 then
        values.(i).(j) <- Fixed.of_float (Rng.float_in rng (-1.0) 1.0)
    done
  done;
  for i = 0 to n - 1 do
    let row = ref 0 in
    for j = 0 to n - 1 do
      if j <> i then row := !row + abs values.(max i j).(min i j)
    done;
    values.(i).(i) <- !row + Fixed.of_float 2.0
  done;
  { shape with Sparse.values }

let cholesky_exact m result =
  match !result with
  | Some r -> r.Cholesky.l = Sparse.factor_reference m
  | None -> false

let cholesky_procs = 4

(* ------------------------------------------------------------------ *)
(* cholesky-locks: Fig. 5 with write locks, lazy propagation           *)
(* ------------------------------------------------------------------ *)

let cholesky_locks size =
  let n = match size with Full -> 96 | Tiny -> 8 in
  let setup probe ~seed ~mode:_ =
    let m = probe.span "apps.generate" (fun () -> cholesky_inputs ~seed ~n) in
    let rt = create probe ~seed (Config.default ~procs:cholesky_procs) in
    let result =
      probe.span "runtime.spawn" (fun () ->
          Cholesky.launch ~spawn:(probe.spawn rt) ~procs:cholesky_procs
            ~variant:Cholesky.Lock_based m)
    in
    {
      rt;
      run = (fun () -> ignore (probe.span "runtime.run" (fun () -> Runtime.run rt)));
      check =
        (fun () ->
          outcome ~ops:(op_total rt) ~exact:(cholesky_exact m result)
            ~rejected:0 ~errors:[]);
      history = None;
      counts = no_counts;
    }
  in
  { name = Spec.cholesky; setup }

(* ------------------------------------------------------------------ *)
(* shard-1000: the EXP-SHARD top point                                 *)
(* ------------------------------------------------------------------ *)

(* Every process writes [writes] slots of its own object range per
   round, crosses a barrier, reads the same slots of its two clockwise
   neighbours — the nearer shard is subscribed (a local read), the
   farther one is served by a demand fetch from its home — and crosses a
   second barrier. The seed draws the written values. *)
let shard_loc id = "s:" ^ string_of_int id

let shard_1000 size =
  let procs, objects, writes, rounds =
    match size with Full -> (1000, 100_000, 4, 2) | Tiny -> (8, 800, 2, 2)
  in
  let per = (objects + procs - 1) / procs in
  let slot_loc proc slot = shard_loc ((proc * per) + (slot mod per)) in
  let setup probe ~seed ~mode:_ =
    let values =
      probe.span "apps.generate" (fun () ->
          let rng = Rng.make seed in
          Array.init procs (fun _ ->
              Array.init (writes * rounds) (fun _ -> 1 + Rng.int rng 1_000_000)))
    in
    let placement =
      probe.span "placement.build" (fun () ->
          let pl =
            Placement.create ~shards:procs ~policy:(Placement.Range { objects }) ()
          in
          for i = 0 to procs - 1 do
            Placement.subscribe pl ~node:i ~shard:i;
            Placement.subscribe pl ~node:i ~shard:((i + 1) mod procs)
          done;
          pl)
    in
    let rt =
      create probe ~seed
        {
          (Config.default ~procs) with
          timestamped_updates = false;
          placement = Some placement;
        }
    in
    let sums = Array.make procs 0 in
    probe.span "runtime.spawn" (fun () ->
        for i = 0 to procs - 1 do
          probe.spawn rt i (fun (api : Api.t) ->
              for r = 0 to rounds - 1 do
                for k = 0 to writes - 1 do
                  let slot = (r * writes) + k in
                  api.write (slot_loc i slot) values.(i).(slot)
                done;
                api.barrier ();
                for k = 0 to writes - 1 do
                  let slot = (r * writes) + k in
                  let near = api.read ~label:Op.PRAM (slot_loc ((i + 1) mod procs) slot) in
                  let far = api.read ~label:Op.PRAM (slot_loc ((i + 2) mod procs) slot) in
                  sums.(i) <- sums.(i) + near + far
                done;
                api.barrier ()
              done)
        done);
    let expected i =
      let v = values.((i + 1) mod procs) and w = values.((i + 2) mod procs) in
      Array.fold_left ( + ) 0 v + Array.fold_left ( + ) 0 w
    in
    {
      rt;
      run = (fun () -> ignore (probe.span "runtime.run" (fun () -> Runtime.run rt)));
      check =
        (fun () ->
          let exact = Array.for_all Fun.id (Array.init procs (fun i -> sums.(i) = expected i)) in
          outcome ~ops:(op_total rt) ~exact ~rejected:0 ~errors:[]);
      history = None;
      counts = no_counts;
    }
  in
  { name = Spec.shard; setup }

(* ------------------------------------------------------------------ *)
(* check-offline: Lattice at Mixed and SC plus lint on a recording     *)
(* ------------------------------------------------------------------ *)

(* Set-up records the lock-based Cholesky and materializes one fresh
   history per check, so no check reuses relations another one (or an
   earlier run) memoized on its history. *)
let check_offline size =
  let n = match size with Full -> 20 | Tiny -> 6 in
  let setup probe ~seed ~mode:_ =
    let m = probe.span "apps.generate" (fun () -> cholesky_inputs ~seed ~n) in
    let rt =
      create probe ~seed
        { (Config.default ~procs:cholesky_procs) with record = true }
    in
    let result =
      probe.span "runtime.spawn" (fun () ->
          Cholesky.launch ~spawn:(probe.spawn rt) ~procs:cholesky_procs
            ~variant:Cholesky.Lock_based m)
    in
    ignore (probe.span "runtime.run" (fun () -> Runtime.run rt));
    let materialize () =
      probe.span "history.materialize" (fun () -> Runtime.history rt)
    in
    let h_mixed = materialize () in
    let h_sc = materialize () in
    let h_lint = materialize () in
    let mixed = ref [] and sc = ref [] and lint = ref None in
    {
      rt;
      run =
        (fun () ->
          mixed := probe.span "lattice.mixed" (fun () -> Lattice.failures h_mixed Lattice.Mixed);
          sc := probe.span "lattice.sc" (fun () -> Lattice.failures h_sc Lattice.SC);
          lint := Some (probe.span "analysis.lint" (fun () -> Analysis.analyze h_lint)));
      check =
        (fun () ->
          let ids fs = List.map (fun f -> f.Lattice.read_id) fs in
          let rejected = List.length (List.sort_uniq compare (ids !mixed @ ids !sc)) in
          let lint_errors =
            match !lint with Some r -> r.Analysis.errors | None -> 1
          in
          outcome ~ops:(History.length h_mixed)
            ~exact:(cholesky_exact m result) ~rejected
            ~errors:
              (if lint_errors = 0 then []
               else [ Printf.sprintf "%d lint errors" lint_errors ]));
      history = Some (fun () -> Runtime.history rt);
      counts =
        (fun () ->
          [
            ("lattice.failures", float_of_int (List.length !mixed + List.length !sc));
            ( "analysis.errors",
              match !lint with
              | Some r -> float_of_int r.Analysis.errors
              | None -> 0. );
          ]);
    }
  in
  { name = Spec.offline; setup }

let all size =
  [ solver_online size; cholesky_locks size; shard_1000 size; check_offline size ]

let find size name = List.find_opt (fun w -> w.name = name) (all size)
