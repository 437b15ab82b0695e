(* The traced run's instrumentation. Everything here sits outside the
   library: spans around the set-up and run calls, an instrumented
   [Api.t] handed to the app fibers, a network observer, and standalone
   replays of the run's own captured inputs through single layers. *)

module W = Workloads
module Engine = Mc_sim.Engine
module Runtime = Mc_dsm.Runtime
module Api = Mc_dsm.Api
module Replica = Mc_dsm.Replica
module Protocol = Mc_dsm.Protocol
module Network = Mc_net.Network
module Placement = Mc_placement.Placement
module Stream = Mc_history.Stream
module History = Mc_history.History
module Online = Mc_consistency.Online
module Summary = Mc_util.Stats.Summary

(* timed op kinds, in [Spec.timed_ops] order; every other Api call is
   folded into [sync] *)
let read = 0
let write = 1
let decrement = 2
let sync = 3

type capture = {
  node : int;  (** the node whose update stream is replayed *)
  mutable events : (float * int * bool * Protocol.msg) list;
      (** (sim time, network seq, own write?, message), newest first *)
  seen_own : (int * int, unit) Hashtbl.t;  (** (shard, seq) of own updates *)
}

type t = {
  spans : Spans.t;
  mutable compute_ns : int;  (** app fiber time between Api calls *)
  self_ns : int array;  (** host time in calls, suspensions cut out *)
  calls : int array;
  mutable blocking : int;
      (** calls that suspended again after their op-cost charge: they
          waited on another node (lock, barrier, await, fetch) *)
  bytes_by_kind : (string, int) Hashtbl.t;
  capture : capture;
}

let create ~node =
  {
    spans = Spans.create ();
    compute_ns = 0;
    self_ns = Array.make 4 0;
    calls = Array.make 4 0;
    blocking = 0;
    bytes_by_kind = Hashtbl.create 16;
    capture = { node; events = []; seen_own = Hashtbl.create 64 };
  }

let is_update = function
  | Protocol.Update _ | Protocol.Update_batch _ | Protocol.Shard_update _ -> true
  | _ -> false

(* a node's own update, once per write: a broadcast or a tree fan-out
   shows the same update once per destination *)
let own_key = function
  | Protocol.Update u -> Some (-1, u.Protocol.useq)
  | Protocol.Update_batch b -> Some (-1, b.Protocol.first.Protocol.useq)
  | Protocol.Shard_update su -> Some (su.Protocol.su_shard, su.Protocol.su_sseq)
  | _ -> None

let writer_of = function
  | Protocol.Update u -> u.Protocol.writer
  | Protocol.Update_batch b -> b.Protocol.first.Protocol.writer
  | Protocol.Shard_update su -> su.Protocol.su_writer
  | _ -> -1

let observe t ~src ~dst ~bytes ~kind ~seq ~sent ~recv msg =
  let prev = Option.value ~default:0 (Hashtbl.find_opt t.bytes_by_kind kind) in
  Hashtbl.replace t.bytes_by_kind kind (prev + bytes);
  let c = t.capture in
  if is_update msg then
    if dst = c.node then c.events <- (recv, seq, false, msg) :: c.events
    else if src = c.node && writer_of msg = c.node then
      match own_key msg with
      | Some key when not (Hashtbl.mem c.seen_own key) ->
        Hashtbl.add c.seen_own key ();
        c.events <- (sent, seq, true, msg) :: c.events
      | _ -> ()

(* The app fiber's view of the runtime: each call is timed, and the
   intervals it spends suspended in the engine are cut out of it. Every
   Runtime op suspends at least once (to charge its op cost), so the
   call's own host time — its op self time — is only the part before the
   first suspension and after each resumption. The suspensions are seen
   by an effect handler around the call that forwards each effect to the
   engine's handler unchanged, so the simulation runs as without it.
   Fiber time outside calls is app compute. *)
let instrument t (api : Api.t) =
  let last = ref (Spans.now ()) in
  let call kind f =
    let t0 = Spans.now () in
    t.compute_ns <- t.compute_ns + (t0 - !last);
    let suspended = ref 0 and suspends = ref 0 in
    let forward (type a) (eff : a Effect.t) =
      Some
        (fun (k : (a, _) Effect.Deep.continuation) ->
          let s = Spans.now () in
          let v = Effect.perform eff in
          suspended := !suspended + (Spans.now () - s);
          incr suspends;
          Effect.Deep.continue k v)
    in
    let r =
      Effect.Deep.match_with f ()
        { Effect.Deep.retc = Fun.id; exnc = raise; effc = forward }
    in
    let t1 = Spans.now () in
    last := t1;
    t.self_ns.(kind) <- t.self_ns.(kind) + (t1 - t0 - !suspended);
    t.calls.(kind) <- t.calls.(kind) + 1;
    if !suspends > 1 then t.blocking <- t.blocking + 1;
    r
  in
  let api' =
    {
      api with
      Api.read = (fun ?label loc -> call read (fun () -> api.read ?label loc));
      write = (fun loc v -> call write (fun () -> api.write loc v));
      decrement =
        (fun loc ~amount -> call decrement (fun () -> api.decrement loc ~amount));
      init_counter = (fun loc v -> call sync (fun () -> api.init_counter loc v));
      read_lock = (fun l -> call sync (fun () -> api.read_lock l));
      read_unlock = (fun l -> call sync (fun () -> api.read_unlock l));
      write_lock = (fun l -> call sync (fun () -> api.write_lock l));
      write_unlock = (fun l -> call sync (fun () -> api.write_unlock l));
      barrier = (fun () -> call sync api.barrier);
      await = (fun loc v -> call sync (fun () -> api.await loc v));
      compute = (fun c -> call sync (fun () -> api.compute c));
    }
  in
  (api', fun () -> t.compute_ns <- t.compute_ns + (Spans.now () - !last))

let probe t =
  {
    W.span = (fun name f -> Spans.record t.spans name f);
    attach = (fun rt -> Network.set_observer (Runtime.network rt) (observe t));
    spawn =
      (fun rt i f ->
        Api.spawn rt i (fun api ->
            let api', finish = instrument t api in
            f api';
            finish ()));
  }

(* ------------------------------------------------------------------ *)
(* Standalone replays                                                  *)
(* ------------------------------------------------------------------ *)

let seconds_of_ns ns = float_of_int ns /. 1e9

(* Time [f] repeatedly until [budget] seconds are spent (at least once,
   at most [max_reps] times) and return the median time of one call;
   [prepare] runs untimed before each call. *)
let time_median ?(budget = 0.2) ?(max_reps = 2000) ~prepare f =
  let samples = ref [] and total = ref 0 and reps = ref 0 in
  while !reps = 0 || (!total < int_of_float (budget *. 1e9) && !reps < max_reps) do
    let x = prepare () in
    let t0 = Spans.now () in
    f x;
    let dt = Spans.now () - t0 in
    samples := seconds_of_ns dt :: !samples;
    total := !total + dt;
    incr reps
  done;
  Stats.median !samples

type replica_replay = { replay_s : float; updates : int; drained : bool }

(* One node's update stream, in the order the node saw it, replayed
   through a fresh [Replica]: its own writes via the local-write entry
   points, everything it received via [receive]/[receive_many] (full
   replication) or [shard_receive] after [subscribe_shard] (placement). *)
let replay_replica rt capture =
  let cfg = Runtime.config rt in
  let procs = cfg.Mc_dsm.Config.procs and node = capture.node in
  let events =
    List.sort
      (fun (t1, s1, _, _) (t2, s2, _, _) -> compare (t1, s1) (t2, s2))
      capture.events
  in
  let fresh () =
    let engine = Engine.create () in
    match cfg.Mc_dsm.Config.placement with
    | None -> Replica.create engine ~id:node ~n:procs ()
    | Some pl ->
      let r = Replica.create engine ~id:node ~n:procs ~causal_delivery:false () in
      List.iter
        (fun shard -> Replica.subscribe_shard r ~shard ())
        (Placement.subscriptions pl ~node);
      r
  in
  let own r (u : Protocol.update) =
    if u.Protocol.is_dec then
      ignore (Replica.local_dec r ~loc:u.Protocol.loc ~amount:u.Protocol.numeric)
    else
      ignore
        (Replica.local_write r ~loc:u.Protocol.loc ~numeric:u.Protocol.numeric
           ~tag:u.Protocol.tag)
  in
  let apply r =
    List.iter
      (fun (_, _, is_own, msg) ->
        match (is_own, msg) with
        | true, Protocol.Update u -> own r u
        | true, Protocol.Update_batch b -> List.iter (own r) (Protocol.decode_batch b)
        | true, Protocol.Shard_update su ->
          let shard = su.Protocol.su_shard and loc = su.Protocol.su_loc in
          if su.Protocol.su_is_dec then
            ignore (Replica.shard_dec r ~shard ~loc ~amount:su.Protocol.su_numeric)
          else
            ignore
              (Replica.shard_write r ~shard ~loc ~numeric:su.Protocol.su_numeric
                 ~tag:su.Protocol.su_tag)
        | false, Protocol.Update u -> Replica.receive r u
        | false, Protocol.Update_batch b ->
          Replica.receive_many r (Protocol.decode_batch b)
        | false, Protocol.Shard_update su -> Replica.shard_receive r su
        | _, _ -> ())
      events
  in
  let updates =
    List.fold_left
      (fun acc (_, _, is_own, msg) ->
        if is_own then acc
        else
          match msg with
          | Protocol.Update_batch b -> acc + Protocol.batch_length b
          | _ -> acc + 1)
      0 events
  in
  let replay_s = time_median ~budget:0.05 ~prepare:fresh apply in
  let r = fresh () in
  apply r;
  let drained =
    Replica.pending_count r = 0
    && List.for_all
         (fun (_, pending) -> pending = 0)
         (Replica.shard_queue_depths r)
  in
  { replay_s; updates; drained }

let noop_callbacks =
  {
    Stream.on_finalize = ignore;
    on_retire = ignore;
    on_dead_value = (fun ~loc:_ ~value:_ -> ());
    on_end = ignore;
  }

type history_replay = {
  materialize_s : float;
  stream_s : float;
  online_replay_s : float;
  ops : int;
  online_failures : int;
}

let replay_history materialize =
  let h = materialize () in
  let materialize_s = time_median ~prepare:ignore (fun () -> ignore (materialize ())) in
  let stream_s =
    time_median ~prepare:ignore (fun () ->
        ignore (Stream.feed_history ~callbacks:noop_callbacks h))
  in
  let online_replay_s = time_median ~prepare:ignore (fun () -> ignore (Online.check h)) in
  {
    materialize_s;
    stream_s;
    online_replay_s;
    ops = History.length h;
    online_failures = List.length (Online.failures (Online.check h));
  }

(* ------------------------------------------------------------------ *)
(* Reading each layer's public counters after a traced iteration       *)
(* ------------------------------------------------------------------ *)

let wait_stats rt kinds =
  let sums =
    List.filter_map
      (fun (k, s) -> if List.mem k kinds then Some s else None)
      (Runtime.wait_summaries rt)
  in
  let count = List.fold_left (fun a s -> a + Summary.count s) 0 sums in
  let total = List.fold_left (fun a s -> a +. Summary.total s) 0. sums in
  let mean = if count = 0 then 0. else total /. float_of_int count in
  let max = List.fold_left (fun a s -> Float.max a (Summary.max s)) 0. sums in
  (mean, max)

let update_kinds = [ "update"; "dec_update"; "update_batch"; "shard_update"; "shard_dec_update" ]

(* The per-layer metrics of one traced iteration ([setup] and [run] are
   the iteration's two root spans). *)
let iteration_metrics t rt ~setup ~run =
  let all = Spans.spans t.spans in
  let total name = seconds_of_ns (Spans.total_by_name all name) in
  let ops = Runtime.op_counts rt in
  let op k = Option.value ~default:0 (List.assoc_opt k ops) in
  let msgs = Network.messages_by_kind (Runtime.network rt) in
  let msg k = Option.value ~default:0 (List.assoc_opt k msgs) in
  let bytes k = Option.value ~default:0 (Hashtbl.find_opt t.bytes_by_kind k) in
  (* app compute, op self time and the rest — engine dispatch plus
     message handlers — partition [Runtime.run]; the rest is also what
     [engine.ns_per_event] divides by the event count *)
  let run_ns = Spans.total_by_name all "runtime.run" in
  let self_total = Array.fold_left ( + ) 0 t.self_ns in
  let other_ns = run_ns - t.compute_ns - self_total in
  let events = Engine.events_processed (Runtime.engine rt) in
  let per a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let lock_mean, lock_max = wait_stats rt [ "write_lock"; "read_lock" ] in
  let barrier_mean, barrier_max = wait_stats rt [ "barrier"; "barrier_subset" ] in
  let await_mean, _ = wait_stats rt [ "await" ] in
  let fetch_mean, _ = wait_stats rt [ "fetch" ] in
  let procs = (Runtime.config rt).Mc_dsm.Config.procs in
  let resident_max =
    List.fold_left max 0
      (List.init procs (fun proc -> Runtime.resident_objects rt ~proc))
  in
  let online =
    Option.map Online.stats (Runtime.online_checker rt)
  in
  let online_stat f = match online with Some s -> float_of_int (f s) | None -> 0. in
  let coverage s =
    let d = Spans.duration s in
    if d = 0 then 1. else 1. -. (float_of_int (Spans.self_time all s) /. float_of_int d)
  in
  let timed =
    List.concat
      (List.mapi
         (fun i op ->
           [
             ("runtime.self_s." ^ op, seconds_of_ns t.self_ns.(i));
             ("runtime.ns_per." ^ op, per t.self_ns.(i) t.calls.(i));
           ])
         Spec.timed_ops)
  in
  let writes = op "write" + op "decrement" in
  [
    ("apps.generate_s", total "apps.generate");
    ("apps.compute_s", seconds_of_ns t.compute_ns);
    ("placement.build_s", total "placement.build");
    ("runtime.create_s", total "runtime.create");
    ("runtime.spawn_s", total "runtime.spawn");
    ("runtime.run_s", seconds_of_ns run_ns);
    ("runtime.self_s.sync", seconds_of_ns t.self_ns.(sync));
    ("runtime.blocking_calls", float_of_int t.blocking);
    ("runtime.other_s", seconds_of_ns other_ns);
    ("engine.events", float_of_int events);
    ("engine.ns_per_event", per other_ns events);
    ( "network.msgs_per_write",
      per (List.fold_left (fun a k -> a + msg k) 0 update_kinds) writes );
    ( "network.latency_mean_us",
      Summary.mean (Network.latency_summary (Runtime.network rt)) );
    ("lock.wait_mean_us", lock_mean);
    ("lock.wait_max_us", lock_max);
    ("barrier.wait_mean_us", barrier_mean);
    ("barrier.wait_max_us", barrier_max);
    ("await.wait_mean_us", await_mean);
    ("runtime.fetches", float_of_int (Runtime.fetch_count rt));
    ("runtime.fetch_ratio", per (Runtime.fetch_count rt) (op "read"));
    ("fetch.wait_mean_us", fetch_mean);
    ("runtime.resident_max", float_of_int resident_max);
    ("online.reads_checked", online_stat (fun s -> s.Online.reads_checked));
    ("online.chains", online_stat (fun s -> s.Online.chains));
    ("online.max_resident", online_stat (fun s -> s.Online.max_resident));
    ("online.live_summaries", online_stat (fun s -> s.Online.live_summaries));
    ("online.failures", online_stat (fun s -> s.Online.failure_count));
    ("lattice.mixed_s", total "lattice.mixed");
    ("lattice.sc_s", total "lattice.sc");
    ("analysis.lint_s", total "analysis.lint");
    ("trace.run_coverage", coverage run);
    ("trace.setup_coverage", coverage setup);
    ("setup_s", seconds_of_ns (Spans.duration setup));
    ("run_s", seconds_of_ns (Spans.duration run));
  ]
  @ timed
  @ List.map (fun k -> ("runtime.ops." ^ k, float_of_int (op k))) Spec.op_kinds
  @ List.concat_map
      (fun k ->
        [
          ("network.msgs." ^ k, float_of_int (msg k));
          ("network.bytes." ^ k, float_of_int (bytes k));
        ])
      Spec.message_kinds
