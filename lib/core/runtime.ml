module Engine = Mc_sim.Engine
module Network = Mc_net.Network
module Op = Mc_history.Op
module Recorder = Mc_history.Recorder
module Metrics = Mc_obs.Metrics
module Trace = Mc_obs.Trace

(* FIFO queues of resolvers: several fibers of one process (the model
   allows multi-threaded processes, Section 3) may have requests in
   flight on the same lock object *)
type lock_waiters = {
  grant_waiters : (Op.lock_name, (Protocol.msg -> unit) Queue.t) Hashtbl.t;
  ack_waiters : (Op.lock_name, (int -> unit) Queue.t) Hashtbl.t;
}

(* Client-side state of one node, beyond the replica itself. *)
type node = {
  replica : Replica.t;
  mutable locks : lock_waiters option; (* created by the node's first lock *)
  mutable flush_waiter : (int ref * (unit -> unit)) option;
      (* remaining acks, resume *)
  released : (int list * int, Protocol.barrier_clock) Hashtbl.t;
      (* (member set, episode) -> this node's part of the release; []
         means all processes *)
  mutable barrier_episode : int;
  subset_episodes : (int list, int ref) Hashtbl.t;
  mutable barrier_expect : (int * int * int) list;
      (* placement only: the stream entries the latest barrier exit
         waited for *)
  mutable open_write_sets :
    (Op.lock_name * (Op.location, int * int * int) Hashtbl.t) list;
      (* loc -> (write_seq, numeric, tag) written under each
         currently-held write lock: locations feed demand-mode
         invalidations, values feed entry-mode grants, so no other mode
         keeps them. The sequence number orders the extracted write-set
         most-recent-first at release time *)
  mutable write_seq : int;
  (* outgoing update batching (full replication only): updates buffered
     since the last flush, newest first *)
  mutable outbox : Protocol.update list;
  mutable outbox_len : int;
  mutable flush_scheduled : bool; (* a batch-window timer is outstanding *)
  (* sharded mode: fibers blocked on a read-miss fetch, per location.
     Replies from one home arrive in FIFO order, so matching the oldest
     waiter of the reply's location is exact *)
  fetch_waiters :
    (Op.location, (int * int * (int * int) list -> unit) Queue.t) Hashtbl.t;
}

(* Registry handles resolved once at creation, so the per-operation
   record is a direct increment / Welford add instead of a hash lookup
   on every call. The op counters and wait histograms are always live
   (they back [op_counts]/[wait_summaries], at the same cost as the
   seed's cached [Stats] handles); everything else hangs off
   [Config.observe]. *)
type hot = {
  c_read : Metrics.Counter.t;
  c_write : Metrics.Counter.t;
  c_init_counter : Metrics.Counter.t;
  c_decrement : Metrics.Counter.t;
  c_write_lock : Metrics.Counter.t;
  c_read_lock : Metrics.Counter.t;
  c_write_unlock : Metrics.Counter.t;
  c_read_unlock : Metrics.Counter.t;
  c_barrier : Metrics.Counter.t;
  c_barrier_subset : Metrics.Counter.t;
  c_await : Metrics.Counter.t;
  c_compute : Metrics.Counter.t;
  c_fetch : Metrics.Counter.t;
  h_read : Metrics.Histogram.t;
  h_write_lock : Metrics.Histogram.t;
  h_read_lock : Metrics.Histogram.t;
  h_write_unlock : Metrics.Histogram.t;
  h_read_unlock : Metrics.Histogram.t;
  h_barrier : Metrics.Histogram.t;
  h_await : Metrics.Histogram.t;
  h_fetch : Metrics.Histogram.t;
}

(* extra series maintained only when [Config.observe] is set *)
type extras = {
  h_staleness : Metrics.Histogram.t; (* pending updates at read time *)
  h_flush : Metrics.Histogram.t; (* updates per outbox flush *)
}

(* One shard update in flight down its dissemination tree: registered at
   the root when it is routed, counted by every subscriber-side apply.
   Visibility latency is apply time minus route time; the flight is
   complete, and dropped, once every remote subscriber counted at
   registration has applied it. *)
type flight = {
  fl_t0 : float;
  fl_expect : int; (* remote subscribers at registration time *)
  mutable fl_applied : int;
}

(* sharded-mode series and flight table, maintained only when
   [Config.observe] is set and a placement is configured. All series are
   labelled by shard — cardinality O(shards), never per-op. *)
type shard_obs = {
  so_fetch_hist : (int, Metrics.Histogram.t) Hashtbl.t;
  so_fetch_count : (int, Metrics.Counter.t) Hashtbl.t;
  so_vis : (int, Metrics.Histogram.t) Hashtbl.t;
  so_vis_full : (int, Metrics.Histogram.t) Hashtbl.t;
  so_staleness : (int, Metrics.Histogram.t) Hashtbl.t;
  so_inflight : (int * int * int, flight) Hashtbl.t; (* (writer, shard, sseq) *)
}

type t = {
  engine : Engine.t;
  cfg : Config.t;
  net : Protocol.msg Network.t;
  nodes : node array;
  lock_managers : Lock_manager.t array; (* empty under placement: no locks *)
  barrier_managers : Barrier_manager.t array; (* one combiner per node *)
  barrier_fanout : int;
  barrier_trees : (int list, Mc_placement.Placement.Tree.t) Hashtbl.t;
  recorder : Recorder.t option;
  checker : Mc_consistency.Online.t option;
  (* stability collector state: per location, the recorded values whose
     death has not been established yet, as (value, writer, useq);
     writer -1 marks the location's virtual initial value 0 *)
  live_values : (Op.location, (int * int * int) list ref) Hashtbl.t;
  counter_locs : (Op.location, unit) Hashtbl.t;
  (* sharded mode, checker on: per (writer, shard) stream, the writes it
     carried as (sseq, loc, recorded value), newest first — translates a
     fetch snapshot clock into the admissible value set of a location *)
  shard_log : (int * int, (int * Op.location * int) list ref) Hashtbl.t;
  mutable tag_counter : int;
  metrics : Metrics.Registry.t;
  hot : hot;
  extras : extras option;
  shard_obs : shard_obs option;
  tracer : Trace.t option;
}

type proc = { rt : t; id : int }

let engine t = t.engine
let config t = t.cfg
let network t = t.net
let proc t i = { rt = t; id = i }
let proc_id p = p.id
let runtime_of_proc p = p.rt

let lock_home t lock = Hashtbl.hash lock mod t.cfg.Config.procs

(* control messages that carry a dependency clock pay for it *)
let vc_bytes cfg = 8 * cfg.Config.procs

let update_wire_bytes cfg =
  Cost.update_bytes
  + (if cfg.Config.timestamped_updates then vc_bytes cfg else 0)

(* a batch carries every item's payload but only one full vector
   timestamp; the remaining clocks are delta-encoded at 8 bytes per
   transmitted entry *)
let batch_wire_bytes cfg b =
  (Cost.update_bytes * Protocol.batch_length b)
  + (if cfg.Config.timestamped_updates then
       vc_bytes cfg + (8 * Protocol.batch_delta_entries b)
     else 0)

(* a shard update carries its shard id, stream sequence number and the
   sparse shard-scoped delta clock instead of the full vector timestamp
   — the wire-size advantage of the sharded mode *)
let shard_update_wire_bytes (su : Protocol.shard_update) =
  Cost.update_bytes + 8 + (8 * List.length su.su_sdep)

let control_wire_bytes cfg msg =
  Cost.control_bytes
  + (match msg with
    | Protocol.Lock_grant _ | Protocol.Unlock_msg _
    | Protocol.Barrier_arrive { clock = Protocol.Vector _; _ }
    | Protocol.Barrier_release { clock = Protocol.Vector _; _ } ->
      vc_bytes cfg
    | Protocol.Barrier_arrive { clock = Protocol.Counts es; _ }
    | Protocol.Barrier_release { clock = Protocol.Counts es; _ } ->
      (* only the nonzero (writer, shard, count) stream entries *)
      8 * List.length es
    | _ -> 0)
  + (* entry mode: guarded values ride the lock messages and pay for it *)
  (match msg with
  | Protocol.Lock_grant { values; _ } | Protocol.Unlock_msg { values; _ } ->
    16 * List.length values
  | Protocol.Fetch_reply { clock; _ } ->
    (* the value plus the home's sparse snapshot clock *)
    16 + (8 * List.length clock)
  | _ -> 0)

let send t ~src ~dst ?(control = true) msg =
  let bytes =
    if control then control_wire_bytes t.cfg msg else update_wire_bytes t.cfg
  in
  Network.send t.net ~src ~dst ~bytes ~kind:(Protocol.kind msg) msg

let lock_waiters node =
  match node.locks with
  | Some w -> w
  | None ->
    let w = { grant_waiters = Hashtbl.create 4; ack_waiters = Hashtbl.create 4 } in
    node.locks <- Some w;
    w

let handle_message t node_id ~src msg =
  let node = t.nodes.(node_id) in
  match msg with
  | Protocol.Update u -> Replica.receive node.replica u
  | Protocol.Update_batch b ->
    Replica.receive_many node.replica (Protocol.decode_batch b)
  | Protocol.Lock_request _ | Protocol.Unlock_msg _ ->
    if Array.length t.lock_managers = 0 then
      invalid_arg "Runtime: lock message under sharded placement";
    Lock_manager.handle t.lock_managers.(node_id) ~src msg
  | Protocol.Lock_grant { lock; _ } -> (
    match Hashtbl.find_opt (lock_waiters node).grant_waiters lock with
    | Some q when not (Queue.is_empty q) -> (Queue.pop q) msg
    | Some _ | None -> invalid_arg "Runtime: unexpected lock grant")
  | Protocol.Unlock_ack { lock; seq } -> (
    match Hashtbl.find_opt (lock_waiters node).ack_waiters lock with
    | Some q when not (Queue.is_empty q) -> (Queue.pop q) seq
    | Some _ | None -> invalid_arg "Runtime: unexpected unlock ack")
  | Protocol.Flush_request { proc } ->
    (* FIFO channels: every update [proc] sent before this request has
       already been received here *)
    send t ~src:node_id ~dst:proc (Protocol.Flush_ack { proc = node_id })
  | Protocol.Flush_ack _ -> (
    match node.flush_waiter with
    | Some (remaining, resume) ->
      decr remaining;
      if !remaining = 0 then begin
        node.flush_waiter <- None;
        resume ()
      end
    | None -> invalid_arg "Runtime: unexpected flush ack")
  | Protocol.Barrier_arrive _ | Protocol.Barrier_release _ ->
    Barrier_manager.handle t.barrier_managers.(node_id) ~src msg
  | Protocol.Shard_update su ->
    (* relay down the per-(writer, shard) dissemination tree before
       ingesting: the tree is deterministic, so consecutive updates of
       one stream traverse identical FIFO paths and stay in order *)
    (match t.cfg.Config.placement with
    | Some pl ->
      let kids =
        Mc_placement.Placement.children pl ~shard:su.su_shard
          ~root:su.su_writer ~node:node_id
      in
      if kids <> [] then
        Network.multicast t.net ~src:node_id ~dsts:kids
          ~bytes:(shard_update_wire_bytes su) ~kind:(Protocol.kind msg)
          msg
    | None -> ());
    Replica.shard_receive node.replica su
  | Protocol.Fetch_request { proc; loc } ->
    (* this node is the shard's home: answer from the per-shard causal
       view, stamped with its per-writer applied counts *)
    let pl =
      match t.cfg.Config.placement with
      | Some pl -> pl
      | None -> invalid_arg "Runtime: fetch request without a placement"
    in
    let shard = Mc_placement.Placement.shard_of_loc pl loc in
    let numeric, tag = Replica.shard_read node.replica ~shard loc in
    let clock = Replica.shard_clock node.replica ~shard in
    (match t.tracer with
    | Some tr ->
      Trace.instant tr ~cat:"fetch" ~tid:node_id ~ts:(Engine.now t.engine)
        ~args:[ ("loc", loc); ("proc", string_of_int proc) ]
        "fetch_serve"
    | None -> ());
    send t ~src:node_id ~dst:proc (Protocol.Fetch_reply { loc; numeric; tag; clock })
  | Protocol.Fetch_reply { loc; numeric; tag; clock } -> (
    match Hashtbl.find_opt node.fetch_waiters loc with
    | Some q when not (Queue.is_empty q) -> (Queue.pop q) (numeric, tag, clock)
    | Some _ | None -> invalid_arg "Runtime: unexpected fetch reply")

(* per-shard series, memoized per runtime (the registry would memoize
   too, but caching the handle keeps the hot path allocation-free) *)
let shard_series tbl make shard =
  match Hashtbl.find_opt tbl shard with
  | Some h -> h
  | None ->
    let h = make (string_of_int shard) in
    Hashtbl.add tbl shard h;
    h

let shard_hist t tbl ~name ~help shard =
  shard_series tbl
    (fun s ->
      Metrics.Registry.histogram t.metrics ~help ~labels:[ ("shard", s) ] name)
    shard

let shard_counter t tbl ~name ~help shard =
  shard_series tbl
    (fun s ->
      Metrics.Registry.counter t.metrics ~help ~labels:[ ("shard", s) ] name)
    shard

(* subscriber-side apply of a remote shard update: advance the update's
   flight and the per-shard visibility series, and mark the apply point
   in the trace *)
let on_shard_apply t node_id ~shard ~writer ~sseq =
  let now = Engine.now t.engine in
  (match t.tracer with
  | Some tr ->
    Trace.instant tr ~cat:"shard" ~tid:node_id ~ts:now
      ~args:
        [
          ("shard", string_of_int shard);
          ("writer", string_of_int writer);
          ("sseq", string_of_int sseq);
        ]
      "shard_apply"
  | None -> ());
  match t.shard_obs with
  | Some so -> (
    match Hashtbl.find_opt so.so_inflight (writer, shard, sseq) with
    | Some fl ->
      fl.fl_applied <- fl.fl_applied + 1;
      let dt = now -. fl.fl_t0 in
      Metrics.Histogram.observe
        (shard_hist t so.so_vis ~name:"mc_shard_visibility_us"
           ~help:"write routed to applied at one subscriber (us)" shard)
        dt;
      if fl.fl_applied >= fl.fl_expect then begin
        Metrics.Histogram.observe
          (shard_hist t so.so_vis_full ~name:"mc_shard_visibility_full_us"
             ~help:"write routed to applied at every subscriber (us)" shard)
          dt;
        Hashtbl.remove so.so_inflight (writer, shard, sseq)
      end
    | None -> ())
  | None -> ()

(* The barrier tree's fanout. A tree level costs a round trip, the
   arrival's hop up and the release's hop down, and saves its parent the
   sends of the releases its children pass on. So a node releases as
   many children as it can send to in one round trip of the latency
   model, and never fewer than the placement's fanout: [procs] (every
   process under node 0, Section 6's central manager) on a slow
   network, the placement's own fanout when a hop costs less than a
   send. Full replication has no placement and keeps the central
   manager *)
let barrier_fanout cfg ~latency =
  let procs = cfg.Config.procs in
  match cfg.Config.placement with
  | None -> procs
  | Some pl ->
    let sends = 2. *. Mc_net.Latency.mean latency /. Cost.send_cost in
    max (Mc_placement.Placement.fanout pl)
      (if sends >= float_of_int procs then procs else int_of_float sends)

(* the barrier tree of a member set ([] for all processes): the heap
   layout rooted at node 0 *)
let barrier_tree t members =
  match Hashtbl.find_opt t.barrier_trees members with
  | Some tree -> tree
  | None ->
    let order =
      if members = [] then Array.init t.cfg.Config.procs Fun.id
      else Array.of_list (0 :: List.filter (fun m -> m <> 0) members)
    in
    let tree = Mc_placement.Placement.Tree.create ~fanout:t.barrier_fanout order in
    Hashtbl.add t.barrier_trees members tree;
    tree

let create engine ?latency cfg =
  if cfg.Config.placement <> None then begin
    if cfg.Config.groups <> [] then
      invalid_arg "Runtime.create: groups are unavailable under placement";
    if cfg.Config.batch_max > 1 then
      invalid_arg "Runtime.create: batch_max > 1 is unavailable under placement"
  end;
  let n = cfg.Config.procs in
  let latency = match latency with Some l -> l | None -> Cost.latency () in
  let net = Cost.network engine ~nodes:n ~latency () in
  let metrics = Metrics.Registry.create () in
  let op_counter op =
    Metrics.Registry.counter metrics ~help:"operations issued"
      ~labels:[ ("op", op) ] "mc_ops_total"
  in
  let wait_hist op =
    Metrics.Registry.histogram metrics ~help:"blocking time per operation (us)"
      ~labels:[ ("op", op) ] "mc_wait_us"
  in
  let hot =
    {
      c_read = op_counter "read";
      c_write = op_counter "write";
      c_init_counter = op_counter "init_counter";
      c_decrement = op_counter "decrement";
      c_write_lock = op_counter "write_lock";
      c_read_lock = op_counter "read_lock";
      c_write_unlock = op_counter "write_unlock";
      c_read_unlock = op_counter "read_unlock";
      c_barrier = op_counter "barrier";
      c_barrier_subset = op_counter "barrier_subset";
      c_await = op_counter "await";
      c_compute = op_counter "compute";
      c_fetch = op_counter "fetch";
      h_read = wait_hist "read";
      h_write_lock = wait_hist "write_lock";
      h_read_lock = wait_hist "read_lock";
      h_write_unlock = wait_hist "write_unlock";
      h_read_unlock = wait_hist "read_unlock";
      h_barrier = wait_hist "barrier";
      h_await = wait_hist "await";
      h_fetch = wait_hist "fetch";
    }
  in
  let extras =
    if cfg.Config.observe then
      Some
        {
          h_staleness =
            Metrics.Registry.histogram metrics
              ~help:"updates still awaiting causal delivery at read time"
              "mc_read_staleness_updates";
          h_flush =
            Metrics.Registry.histogram metrics ~help:"updates per outbox flush"
              "mc_outbox_flush_size";
        }
    else None
  in
  let shard_obs =
    if cfg.Config.observe && cfg.Config.placement <> None then
      Some
        {
          so_fetch_hist = Hashtbl.create 8;
          so_fetch_count = Hashtbl.create 8;
          so_vis = Hashtbl.create 8;
          so_vis_full = Hashtbl.create 8;
          so_staleness = Hashtbl.create 8;
          so_inflight = Hashtbl.create 256;
        }
    else None
  in
  let rec t =
    lazy
      (let send_from home ~dst msg =
         send (Lazy.force t) ~src:home ~dst msg
       in
       {
         engine;
         cfg;
         net;
         nodes =
           Array.init n (fun id ->
               {
                 replica =
                   (* placement routing runs the replicas gap-tolerant:
                      PRAM view on receipt, per-shard causal views on top *)
                   Replica.create engine ~id ~n ~groups:cfg.Config.groups
                     ~causal_delivery:(cfg.Config.placement = None) ();
                 locks = None;
                 flush_waiter = None;
                 released = Hashtbl.create 8;
                 barrier_episode = 0;
                 subset_episodes = Hashtbl.create 4;
                 barrier_expect = [];
                 open_write_sets = [];
                 write_seq = 0;
                 outbox = [];
                 outbox_len = 0;
                 flush_scheduled = false;
                 fetch_waiters = Hashtbl.create 4;
               });
         lock_managers =
           (if cfg.Config.placement = None then
              Array.init n (fun home ->
                  Lock_manager.create ~n
                    ~demand:(cfg.Config.propagation = Config.Demand)
                    ~send:(send_from home))
            else [||]);
         barrier_managers =
           Array.init n (fun node ->
               Barrier_manager.create ~node
                 ~tree:(fun members -> barrier_tree (Lazy.force t) members)
                 ~receivers:
                   (match cfg.Config.placement with
                   | Some pl -> fun shard -> Mc_placement.Placement.subscribers pl ~shard
                   | None -> fun _ -> [] (* vector clocks name no streams *))
                 ~send:(send_from node)
                 ~on_release:(fun ~members ~episode clock ->
                   let nd = (Lazy.force t).nodes.(node) in
                   Hashtbl.replace nd.released (members, episode) clock;
                   Replica.notify nd.replica));
         barrier_fanout = barrier_fanout cfg ~latency;
         barrier_trees = Hashtbl.create 4;
         recorder =
           (if cfg.Config.record || cfg.Config.check_online then
              Some (Recorder.create ~materialize:cfg.Config.record ~procs:n ())
            else None);
         checker =
           (if cfg.Config.check_online then
              Some
                (Mc_consistency.Online.create ~procs:n ~groups:cfg.Config.groups
                   ?points:(Option.map (fun m -> [ m ]) cfg.Config.check_model) ())
            else None);
         live_values = Hashtbl.create 32;
         counter_locs = Hashtbl.create 8;
         shard_log = Hashtbl.create 64;
         tag_counter = 0;
         metrics;
         hot;
         extras;
         shard_obs;
         tracer = cfg.Config.tracer;
       })
  in
  let t = Lazy.force t in
  (* materialize the placement's subscriptions at the replicas *)
  (match cfg.Config.placement with
  | Some pl ->
    Array.iteri
      (fun id node ->
        List.iter
          (fun shard -> Replica.subscribe_shard node.replica ~shard ())
          (Mc_placement.Placement.subscriptions pl ~node:id))
      t.nodes
  | None -> ());
  (match (t.recorder, t.checker) with
  | Some r, Some c -> Recorder.subscribe r (Mc_consistency.Online.sink c)
  | _ -> ());
  for node_id = 0 to n - 1 do
    Network.set_handler net node_id (fun ~src msg -> handle_message t node_id ~src msg)
  done;
  if cfg.Config.observe then begin
    Engine.attach_metrics engine metrics;
    Network.attach_metrics net metrics;
    Array.iter (fun node -> Replica.attach_metrics node.replica metrics) t.nodes;
    Option.iter
      (fun pl -> Mc_placement.Placement.attach_metrics pl metrics)
      cfg.Config.placement;
    Option.iter
      (fun c -> Mc_consistency.Online.attach_metrics c metrics)
      t.checker
  end;
  (* visibility tracking: every remote shard-update apply reports back
     through the replica's apply observer *)
  if cfg.Config.placement <> None && (t.shard_obs <> None || t.tracer <> None)
  then
    Array.iteri
      (fun node_id node ->
        Replica.set_shard_apply_observer node.replica (fun ~shard ~writer ~sseq ->
            on_shard_apply t node_id ~shard ~writer ~sseq))
      t.nodes;
  (match t.tracer with
  | Some tr ->
    (* fetch round trips are paired by a per-(requester, location) FIFO of
       fresh rtt ids: requests and replies of one pair travel opposite
       directions of FIFO channels through a home that answers in arrival
       order, so the queue discipline matches them exactly *)
    let rtt_counter = ref 0 in
    let rtt_pending : (int * Op.location, int Queue.t) Hashtbl.t =
      Hashtbl.create 16
    in
    let rtt_push key =
      incr rtt_counter;
      let q =
        match Hashtbl.find_opt rtt_pending key with
        | Some q -> q
        | None ->
          let q = Queue.create () in
          Hashtbl.add rtt_pending key q;
          q
      in
      Queue.push !rtt_counter q;
      !rtt_counter
    in
    let rtt_pop key =
      match Hashtbl.find_opt rtt_pending key with
      | Some q when not (Queue.is_empty q) -> Queue.pop q
      | _ -> -1
    in
    Network.set_observer net
      (fun ~src ~dst ~bytes ~kind ~seq ~sent ~recv msg ->
        let emit ?(cat = "msg") args =
          Trace.flow tr ~cat ~id:seq ~src ~dst ~ts_send:sent ~ts_recv:recv
            ~args:(("bytes", string_of_int bytes) :: args)
            kind
        in
        match msg with
        | Protocol.Shard_update su ->
          emit ~cat:"shard"
            [
              ("shard", string_of_int su.su_shard);
              ("writer", string_of_int su.su_writer);
              ("sseq", string_of_int su.su_sseq);
              ("loc", su.su_loc);
            ]
        | Protocol.Fetch_request { proc; loc } ->
          emit ~cat:"fetch"
            [ ("loc", loc); ("rtt", string_of_int (rtt_push (proc, loc))) ]
        | Protocol.Fetch_reply { loc; _ } ->
          emit ~cat:"fetch"
            [ ("loc", loc); ("rtt", string_of_int (rtt_pop (dst, loc))) ]
        | _ -> emit [])
  | None -> ());
  t

(* ------------------------------------------------------------------ *)
(* Stability collector                                                 *)
(* ------------------------------------------------------------------ *)

let recorded_value ~numeric ~tag = if tag <> 0 then tag else numeric

(* A recorded value is dead — no future operation can read it — once
   (a) its update is applied at every replica (the causal applied
   vectors dominate it, which implies the PRAM and group views have
   applied it too), and (b) no view of its location at any replica
   currently returns it. Views only move forward over each location's
   unique tags, so both conditions are stable. Counter locations are
   exempt: decrements may rewrite an earlier numeric value. Entry-mode
   guarded writes travel with lock grants instead of the applied
   streams, so they are registered without a sequence number and simply
   never declared dead (conservative). *)

let register_live t loc ~value ~writer ~useq =
  if not (Hashtbl.mem t.counter_locs loc) then begin
    match Hashtbl.find_opt t.live_values loc with
    | Some l -> l := (value, writer, useq) :: !l
    | None ->
      (* first write: the virtual initial value 0 becomes collectable *)
      Hashtbl.add t.live_values loc (ref [ (value, writer, useq); (0, -1, 0) ])
  end

let mark_counter_loc t loc =
  Hashtbl.replace t.counter_locs loc ();
  Hashtbl.remove t.live_values loc

let shows (numeric, tag) v = recorded_value ~numeric ~tag = v

let rec group_shows rep loc v = function
  | [] -> false
  | group :: rest -> shows (Replica.group_read rep ~group loc) v || group_shows rep loc v rest

(* does some view of [loc] at replica [i] or a later one return [v]? *)
let rec value_visible t loc v i =
  i < Array.length t.nodes
  &&
  let rep = t.nodes.(i).replica in
  shows (Replica.pram_read rep loc) v
  || shows (Replica.causal_read rep loc) v
  || group_shows rep loc v t.cfg.Config.groups
  || value_visible t loc v (i + 1)

let rec applied_everywhere t ~writer ~useq i =
  i >= Array.length t.nodes
  || (Replica.applied_from t.nodes.(i).replica writer >= useq
     && applied_everywhere t ~writer ~useq (i + 1))

(* [l] without its dead values, announced in order; [l] itself when all
   are live *)
let rec sweep_values t r loc l =
  match l with
  | [] -> l
  | ((v, writer, useq) as x) :: rest ->
    if (writer < 0 || applied_everywhere t ~writer ~useq 0) && not (value_visible t loc v 0)
    then begin
      Recorder.notify_dead r ~loc ~value:v;
      sweep_values t r loc rest
    end
    else
      let rest' = sweep_values t r loc rest in
      if rest' == rest then l else x :: rest'

(* Runs at every unlock, barrier and await completion (and at the end of
   the run), with a checker only. *)
let stability_sweep t =
  match t.recorder with
  | Some r
    when t.checker <> None
         && t.cfg.Config.placement = None
         && Hashtbl.length t.live_values > 0 ->
    Hashtbl.iter (fun loc l -> l := sweep_values t r loc !l) t.live_values
  | _ -> ()

let run t =
  let tend = Engine.run t.engine in
  (match (t.recorder, t.checker) with
  | Some r, Some _ ->
    stability_sweep t;
    Recorder.close r
  | _ -> ());
  tend

let online_checker t = t.checker

let spawn_process t i f =
  Engine.spawn t.engine ~name:(Printf.sprintf "proc-%d" i) (fun () ->
      f (proc t i))

let spawn_thread t i f =
  (* an additional fiber of process [i]: shares its replica and recorder,
     so the recorded local history becomes a genuine partial order
     (Section 3 models intra-process concurrency) *)
  Engine.spawn t.engine ~name:(Printf.sprintf "proc-%d-thread" i) (fun () ->
      f (proc t i))

(* ------------------------------------------------------------------ *)
(* Instrumentation helpers                                             *)
(* ------------------------------------------------------------------ *)

let timed p h f =
  let t0 = Engine.now p.rt.engine in
  let r = f () in
  Metrics.Histogram.observe h (Engine.now p.rt.engine -. t0);
  r

let charge p = Engine.delay p.rt.engine Cost.op_cost

(* Trace arguments and [Op] kinds are built only under [tracing] and
   [recording], so an unobserved operation allocates neither. *)
let tracing p = p.rt.tracer <> None
let recording p = p.rt.recorder <> None

(* One Complete span per recorded operation: emitted at exactly the
   call sites that feed the recorder, so a trace's span count equals the
   recorded history's length. [compute] records nothing and traces
   nothing. *)
let trace_span p ~t0 ?(args = []) name =
  match p.rt.tracer with
  | Some tr ->
    Trace.span tr ~tid:p.id ~ts:t0 ~dur:(Engine.now p.rt.engine -. t0) ~args name
  | None -> ()

let trace_instant p ?(args = []) name =
  match p.rt.tracer with
  | Some tr ->
    Trace.instant tr ~cat:"sync" ~tid:p.id ~ts:(Engine.now p.rt.engine) ~args name
  | None -> ()

let record p kind =
  match p.rt.recorder with
  | Some r -> ignore (Recorder.record r ~proc:p.id kind)
  | None -> ()

let record_start p =
  match p.rt.recorder with
  | Some r -> Some (Recorder.start r ~proc:p.id)
  | None -> None

let record_finish p token ?sync_seq kind =
  match p.rt.recorder, token with
  | Some r, Some tok -> ignore (Recorder.finish r tok ?sync_seq kind)
  | _ -> ()

let fresh_tag p =
  p.rt.tag_counter <- p.rt.tag_counter + 1;
  ((p.id + 1) lsl 40) lor p.rt.tag_counter

(* ------------------------------------------------------------------ *)
(* Memory operations                                                   *)
(* ------------------------------------------------------------------ *)

(* sharded mode: translate a fetch snapshot clock into the location's
   admissible values — per writer counted in the snapshot, that writer's
   latest write to [loc] within it. The log is complete up to every
   snapshot count: writes are logged at issue time, strictly before the
   home applies them and replies. *)
let fetch_admissible t ~shard ~loc clock =
  List.filter_map
    (fun (w, c) ->
      match Hashtbl.find_opt t.shard_log (w, shard) with
      | None -> None
      | Some l -> (
        match
          List.find_opt (fun (sseq, l', _) -> sseq <= c && l' = loc) !l
        with
        | Some (_, _, v) -> Some v
        | None -> None))
    clock

(* demand-driven propagation for a non-subscriber: ask the shard's home
   and block until the reply. A shard with no subscribers was never
   written (writes require subscription), so its locations still hold
   the virtual initial value — no message needed. *)
let fetch_read p pl ~label ~shard loc =
  Metrics.Counter.incr p.rt.hot.c_fetch;
  (match p.rt.shard_obs with
  | Some so ->
    Metrics.Counter.incr
      (shard_counter p.rt so.so_fetch_count ~name:"mc_shard_fetch_total"
         ~help:"demand fetches per shard" shard)
  | None -> ());
  let node = p.rt.nodes.(p.id) in
  let numeric, tag, clock =
    match Mc_placement.Placement.home pl ~shard with
    | None -> (0, 0, [])
    | Some home ->
      let t_req = Engine.now p.rt.engine in
      send p.rt ~src:p.id ~dst:home
        (Protocol.Fetch_request { proc = p.id; loc });
      let reply =
        timed p p.rt.hot.h_fetch (fun () ->
            Engine.suspend p.rt.engine (fun resume ->
                let q =
                  match Hashtbl.find_opt node.fetch_waiters loc with
                  | Some q -> q
                  | None ->
                    let q = Queue.create () in
                    Hashtbl.add node.fetch_waiters loc q;
                    q
                in
                Queue.push resume q))
      in
      let dt = Engine.now p.rt.engine -. t_req in
      (match p.rt.shard_obs with
      | Some so ->
        Metrics.Histogram.observe
          (shard_hist p.rt so.so_fetch_hist ~name:"mc_shard_fetch_us"
             ~help:"demand-fetch round trip per shard (us)" shard)
          dt
      | None -> ());
      (* the request/reply flow arcs carry a shared rtt id; this slice is
         their requester-side pairing in chrome://tracing *)
      (match p.rt.tracer with
      | Some tr ->
        Trace.span tr ~cat:"fetch" ~tid:p.id ~ts:t_req ~dur:dt
          ~args:
            [
              ("loc", loc);
              ("shard", string_of_int shard);
              ("home", string_of_int home);
            ]
          "fetch_rtt"
      | None -> ());
      reply
  in
  (* announce the snapshot to the partial-view checker, atomically with
     the record below (no suspension in between) *)
  (match p.rt.checker with
  | Some c ->
    let admissible = fetch_admissible p.rt ~shard ~loc clock in
    Mc_consistency.Online.note_fetch c ~proc:p.id ~loc ~admissible
      ~zero_ok:(admissible = [])
  | None -> ());
  if recording p then record p (Op.Read { loc; label; value = recorded_value ~numeric ~tag });
  numeric

let read p ?(label = Op.Causal) loc =
  Metrics.Counter.incr p.rt.hot.c_read;
  charge p;
  let node = p.rt.nodes.(p.id) in
  let t0 = Engine.now p.rt.engine in
  (match p.rt.extras with
  | Some e ->
    Metrics.Histogram.observe e.h_staleness
      (float_of_int (Replica.pending_count node.replica))
  | None -> ());
  (* demand mode: reads of invalidated locations block until the
     pending updates are applied *)
  if Replica.location_blocked node.replica loc then
    Replica.wait_until node.replica ~hint:(Replica.Loc loc) (fun () ->
        not (Replica.location_blocked node.replica loc));
  let numeric =
    match p.rt.cfg.Config.placement with
    | Some pl -> (
      (match label with
      | Op.Group _ ->
        invalid_arg
          "Runtime.read: group reads are unavailable under sharded placement"
      | Op.Causal | Op.PRAM -> ());
      let shard = Mc_placement.Placement.shard_of_loc pl loc in
      if Replica.shard_subscribed node.replica ~shard then begin
        (match p.rt.shard_obs with
        | Some so ->
          Metrics.Histogram.observe
            (shard_hist p.rt so.so_staleness ~name:"mc_shard_staleness_updates"
               ~help:"shard updates parked on a gap at read time" shard)
            (float_of_int (Replica.shard_pending_len node.replica ~shard))
        | None -> ());
        let numeric, tag =
          match label with
          | Op.Causal -> Replica.shard_read node.replica ~shard loc
          | Op.PRAM | Op.Group _ -> Replica.pram_read node.replica loc
        in
        if recording p then
          record p (Op.Read { loc; label; value = recorded_value ~numeric ~tag });
        if tracing p then trace_span p ~t0 ~args:[ ("loc", loc) ] "read";
        numeric
      end
      else begin
        let numeric = fetch_read p pl ~label ~shard loc in
        if tracing p then trace_span p ~t0 ~args:[ ("loc", loc) ] "fetched_read";
        numeric
      end)
    | None ->
      let numeric, tag =
        match label with
        | Op.Causal -> Replica.causal_read node.replica loc
        | Op.PRAM -> Replica.pram_read node.replica loc
        | Op.Group group ->
          if not (List.mem p.id group) then
            invalid_arg
              "Runtime.read: process is not a member of the read group";
          Replica.group_read node.replica ~group loc
      in
      if recording p then
        record p (Op.Read { loc; label; value = recorded_value ~numeric ~tag });
      if tracing p then trace_span p ~t0 ~args:[ ("loc", loc) ] "read";
      numeric
  in
  Metrics.Histogram.observe p.rt.hot.h_read (Engine.now p.rt.engine -. t0);
  numeric

(* flush the buffered outbox: a single update goes out as a plain
   [Update] (same wire cost as the unbatched path), a longer run as one
   delta-encoded [Update_batch] whose payload is allocated once and
   shared across the whole fan-out *)
let flush_outbox t node_id =
  let node = t.nodes.(node_id) in
  match node.outbox with
  | [] -> ()
  | buffered ->
    (match t.extras with
    | Some e ->
      Metrics.Histogram.observe e.h_flush (float_of_int node.outbox_len)
    | None -> ());
    node.outbox <- [];
    node.outbox_len <- 0;
    let msg, bytes =
      match buffered with
      | [ u ] -> (Protocol.Update u, update_wire_bytes t.cfg)
      | buffered ->
        let b = Protocol.encode_batch (List.rev buffered) in
        (Protocol.Update_batch b, batch_wire_bytes t.cfg b)
    in
    Network.broadcast t.net ~src:node_id ~bytes ~kind:(Protocol.kind msg) msg

let broadcast_update p (u : Protocol.update) =
  let node = p.rt.nodes.(p.id) in
  if p.rt.cfg.Config.batch_max <= 1 then
    Network.broadcast p.rt.net ~src:p.id ~bytes:(update_wire_bytes p.rt.cfg)
      ~kind:(Protocol.kind (Protocol.Update u)) (Protocol.Update u)
  else begin
    (* coalesce: consecutive local updates have consecutive useqs, so
       the outbox is always a valid batch. Flushed when full, when the
       window timer fires, and before every synchronization operation
       (so no dependency clock sent to a peer can ever reference a
       buffered update) *)
    node.outbox <- u :: node.outbox;
    node.outbox_len <- node.outbox_len + 1;
    if node.outbox_len >= p.rt.cfg.Config.batch_max then
      flush_outbox p.rt p.id
    else if not node.flush_scheduled then begin
      node.flush_scheduled <- true;
      let rt = p.rt and id = p.id in
      Engine.schedule rt.engine ~delay:rt.cfg.Config.batch_window (fun () ->
          rt.nodes.(id).flush_scheduled <- false;
          flush_outbox rt id)
    end
  end

(* sharded mode: send the update to this writer's tree children only;
   the barrier counts it through its stream sequence number *)
let shard_route p pl (su : Protocol.shard_update) =
  let subs = Mc_placement.Placement.subscribers pl ~shard:su.su_shard in
  let expect = List.length (List.filter (fun d -> d <> p.id) subs) in
  (match p.rt.shard_obs with
  | Some so ->
    if expect > 0 then
      Hashtbl.replace so.so_inflight
        (su.su_writer, su.su_shard, su.su_sseq)
        { fl_t0 = Engine.now p.rt.engine; fl_expect = expect; fl_applied = 0 }
  | None -> ());
  (match p.rt.tracer with
  | Some tr ->
    Trace.instant tr ~cat:"shard" ~tid:p.id ~ts:(Engine.now p.rt.engine)
      ~args:
        [
          ("shard", string_of_int su.su_shard);
          ("writer", string_of_int su.su_writer);
          ("sseq", string_of_int su.su_sseq);
          ("loc", su.su_loc);
          ("expect", string_of_int expect);
        ]
      "shard_send"
  | None -> ());
  let kids =
    Mc_placement.Placement.children pl ~shard:su.su_shard ~root:p.id ~node:p.id
  in
  if kids <> [] then
    Network.multicast p.rt.net ~src:p.id ~dsts:kids
      ~bytes:(shard_update_wire_bytes su)
      ~kind:(Protocol.kind (Protocol.Shard_update su))
      (Protocol.Shard_update su)

(* feed the (writer, shard) stream log that [fetch_admissible] consults;
   decrements are not logged — counter locations are never fetched (they
   are only read through awaits and decrements, both of which require
   subscription) *)
let log_shard_write p (su : Protocol.shard_update) ~value =
  if p.rt.checker <> None && not su.su_is_dec then begin
    let key = (su.su_writer, su.su_shard) in
    let entry = (su.su_sseq, su.su_loc, value) in
    match Hashtbl.find_opt p.rt.shard_log key with
    | Some l -> l := entry :: !l
    | None -> Hashtbl.add p.rt.shard_log key (ref [ entry ])
  end

let track_write_set p loc ~numeric ~tag =
  let node = p.rt.nodes.(p.id) in
  match node.open_write_sets with
  | [] -> ()
  | logs ->
    node.write_seq <- node.write_seq + 1;
    let seq = node.write_seq in
    List.iter (fun (_, log) -> Hashtbl.replace log loc (seq, numeric, tag)) logs

(* entry mode: is this process inside a write critical section? *)
let in_entry_section p =
  p.rt.cfg.Config.propagation = Config.Entry
  && p.rt.nodes.(p.id).open_write_sets <> []

let write p loc v =
  Metrics.Counter.incr p.rt.hot.c_write;
  charge p;
  let node = p.rt.nodes.(p.id) in
  let tag = fresh_tag p in
  if recording p then record p (Op.Write { loc; value = tag });
  if tracing p then
    trace_span p ~t0:(Engine.now p.rt.engine) ~args:[ ("loc", loc) ] "write";
  match p.rt.cfg.Config.placement with
  | Some pl ->
    (* write discipline: only subscribers of a shard may write it
       ([Replica.shard_write] enforces it) — this guarantees
       read-your-writes locally and keeps fetched locations
       never-self-written *)
    let shard = Mc_placement.Placement.shard_of_loc pl loc in
    let su = Replica.shard_write node.replica ~shard ~loc ~numeric:v ~tag in
    log_shard_write p su ~value:tag;
    shard_route p pl su
  | None ->
    if in_entry_section p then begin
      (* guarded write: install locally and ship with the unlock instead
         of broadcasting (entry consistency) *)
      Replica.install_direct node.replica ~loc ~numeric:v ~tag;
      track_write_set p loc ~numeric:v ~tag
    end
    else begin
      let u = Replica.local_write node.replica ~loc ~numeric:v ~tag in
      track_write_set p loc ~numeric:v ~tag;
      if p.rt.checker <> None then
        register_live p.rt loc ~value:tag ~writer:p.id ~useq:u.Protocol.useq;
      broadcast_update p u
    end

let init_counter p loc v =
  Metrics.Counter.incr p.rt.hot.c_init_counter;
  charge p;
  let node = p.rt.nodes.(p.id) in
  mark_counter_loc p.rt loc;
  if recording p then record p (Op.Write { loc; value = v });
  if tracing p then
    trace_span p ~t0:(Engine.now p.rt.engine) ~args:[ ("loc", loc) ] "init_counter";
  (* tag 0 marks the location as numerically recorded *)
  match p.rt.cfg.Config.placement with
  | Some pl ->
    let shard = Mc_placement.Placement.shard_of_loc pl loc in
    let su = Replica.shard_write node.replica ~shard ~loc ~numeric:v ~tag:0 in
    log_shard_write p su ~value:v;
    shard_route p pl su
  | None ->
    if in_entry_section p then begin
      Replica.install_direct node.replica ~loc ~numeric:v ~tag:0;
      track_write_set p loc ~numeric:v ~tag:0
    end
    else begin
      let u = Replica.local_write node.replica ~loc ~numeric:v ~tag:0 in
      track_write_set p loc ~numeric:v ~tag:0;
      broadcast_update p u
    end

let decrement p loc ~amount =
  Metrics.Counter.incr p.rt.hot.c_decrement;
  charge p;
  let node = p.rt.nodes.(p.id) in
  let t0 = Engine.now p.rt.engine in
  mark_counter_loc p.rt loc;
  (match p.rt.cfg.Config.placement with
  | Some pl ->
    let shard = Mc_placement.Placement.shard_of_loc pl loc in
    let su, observed = Replica.shard_dec node.replica ~shard ~loc ~amount in
    if recording p then record p (Op.Decrement { loc; amount; observed });
    shard_route p pl su
  | None ->
    if in_entry_section p then begin
      let observed, _ = Replica.causal_read node.replica loc in
      if recording p then record p (Op.Decrement { loc; amount; observed });
      Replica.install_direct node.replica ~loc ~numeric:(observed - amount)
        ~tag:0;
      track_write_set p loc ~numeric:(observed - amount) ~tag:0
    end
    else begin
      let u, observed = Replica.local_dec node.replica ~loc ~amount in
      if recording p then record p (Op.Decrement { loc; amount; observed });
      track_write_set p loc ~numeric:(observed - amount) ~tag:0;
      broadcast_update p u
    end);
  if tracing p then trace_span p ~t0 ~args:[ ("loc", loc) ] "decrement"

(* ------------------------------------------------------------------ *)
(* Locks                                                               *)
(* ------------------------------------------------------------------ *)

let acquire p lock ~write =
  if p.rt.cfg.Config.placement <> None then
    invalid_arg
      "Runtime: locks are unavailable under sharded placement (use barriers; \
       cross-shard ordering comes from the barrier count scheme)";
  Metrics.Counter.incr
    (if write then p.rt.hot.c_write_lock else p.rt.hot.c_read_lock);
  charge p;
  flush_outbox p.rt p.id;
  let node = p.rt.nodes.(p.id) in
  let token = record_start p in
  let t0 = Engine.now p.rt.engine in
  timed p
    (if write then p.rt.hot.h_write_lock else p.rt.hot.h_read_lock)
    (fun () ->
      send p.rt ~src:p.id ~dst:(lock_home p.rt lock)
        (Protocol.Lock_request { proc = p.id; lock; write });
      let grant =
        Engine.suspend p.rt.engine (fun resume ->
            let q =
              let waiters = (lock_waiters node).grant_waiters in
              match Hashtbl.find_opt waiters lock with
              | Some q -> q
              | None ->
                let q = Queue.create () in
                Hashtbl.add waiters lock q;
                q
            in
            Queue.push resume q)
      in
      match grant with
      | Protocol.Lock_grant { seq; dep; invalid; values; _ } ->
        (match p.rt.cfg.Config.propagation with
        | Config.Eager | Config.Lazy ->
          (* wait for the previous holders' updates to be applied *)
          Replica.wait_until node.replica ~hint:Replica.Clock (fun () ->
              Replica.dep_satisfied node.replica dep)
        | Config.Demand ->
          (* enter immediately; only reads of the written locations wait *)
          List.iter
            (fun (loc, d) -> Replica.mark_invalid node.replica loc d)
            invalid
        | Config.Entry ->
          (* the guarded variables' current values arrived with the grant *)
          List.iter
            (fun (loc, numeric, tag) ->
              Replica.install_direct node.replica ~loc ~numeric ~tag)
            values);
        (match p.rt.cfg.Config.propagation with
        | (Config.Demand | Config.Entry) when write ->
          node.open_write_sets <- (lock, Hashtbl.create 8) :: node.open_write_sets
        | _ -> ());
        if recording p then
          record_finish p token ~sync_seq:seq
            (if write then Op.Write_lock lock else Op.Read_lock lock);
        if tracing p then begin
          let args = [ ("lock", lock); ("seq", string_of_int seq) ] in
          trace_instant p ~args "sync_epoch";
          trace_span p ~t0 ~args (if write then "write_lock" else "read_lock")
        end
      | _ -> assert false)

let release p lock ~write =
  Metrics.Counter.incr
    (if write then p.rt.hot.c_write_unlock else p.rt.hot.c_read_unlock);
  charge p;
  (* the unlock's dependency clock counts our buffered updates, so they
     must be on the wire (FIFO) before it is sent *)
  flush_outbox p.rt p.id;
  let node = p.rt.nodes.(p.id) in
  let token = record_start p in
  let t0 = Engine.now p.rt.engine in
  timed p
    (if write then p.rt.hot.h_write_unlock else p.rt.hot.h_read_unlock)
    (fun () ->
      (* eager propagation: flush all our updates everywhere first *)
      (if p.rt.cfg.Config.propagation = Config.Eager && p.rt.cfg.Config.procs > 1
       then begin
         Network.broadcast p.rt.net ~src:p.id ~bytes:Cost.control_bytes
           ~kind:"flush_request"
           (Protocol.Flush_request { proc = p.id });
         Engine.suspend p.rt.engine (fun resume ->
             node.flush_waiter <-
               Some (ref (p.rt.cfg.Config.procs - 1), fun () -> resume ()))
       end);
      let written =
        if write then begin
          match List.assoc_opt lock node.open_write_sets with
          | Some log ->
            node.open_write_sets <-
              List.filter (fun (l, _) -> l <> lock) node.open_write_sets;
            (* most-recently-written-first, as the seed's move-to-front
               log produced *)
            Hashtbl.fold (fun loc (seq, numeric, tag) acc ->
                (seq, (loc, numeric, tag)) :: acc)
              log []
            |> List.sort (fun (a, _) (b, _) -> compare (b : int) a)
            |> List.map snd
          | None -> []
        end
        else []
      in
      send p.rt ~src:p.id ~dst:(lock_home p.rt lock)
        (Protocol.Unlock_msg
           {
             proc = p.id;
             lock;
             write;
             vc = Replica.applied node.replica;
             write_set = List.map (fun (l, _, _) -> l) written;
             values =
               (if p.rt.cfg.Config.propagation = Config.Entry then written
                else []);
           });
      let seq =
        Engine.suspend p.rt.engine (fun resume ->
            let q =
              let waiters = (lock_waiters node).ack_waiters in
              match Hashtbl.find_opt waiters lock with
              | Some q -> q
              | None ->
                let q = Queue.create () in
                Hashtbl.add waiters lock q;
                q
            in
            Queue.push resume q)
      in
      if recording p then
        record_finish p token ~sync_seq:seq
          (if write then Op.Write_unlock lock else Op.Read_unlock lock);
      if tracing p then
        trace_span p ~t0
          ~args:[ ("lock", lock); ("seq", string_of_int seq) ]
          (if write then "write_unlock" else "read_unlock"));
  stability_sweep p.rt

let write_lock p lock = acquire p lock ~write:true
let write_unlock p lock = release p lock ~write:true
let read_lock p lock = acquire p lock ~write:false
let read_unlock p lock = release p lock ~write:false

(* ------------------------------------------------------------------ *)
(* Barrier and await                                                   *)
(* ------------------------------------------------------------------ *)

let barrier_generic p ~members ~episode =
  (* the arrival's clock includes buffered updates *)
  flush_outbox p.rt p.id;
  let node = p.rt.nodes.(p.id) in
  let token = record_start p in
  let t0 = Engine.now p.rt.engine in
  let clock =
    match p.rt.cfg.Config.placement with
    | None -> Protocol.Vector (Replica.applied node.replica)
    | Some _ ->
      Protocol.Counts
        (List.map (fun (shard, c) -> (p.id, shard, c)) (Replica.own_streams node.replica))
  in
  timed p p.rt.hot.h_barrier (fun () ->
      Barrier_manager.join p.rt.barrier_managers.(p.id) ~members ~episode clock;
      Replica.wait_until node.replica ~hint:Replica.Clock (fun () ->
          match Hashtbl.find_opt node.released (members, episode) with
          | Some (Protocol.Vector dep) -> Replica.dep_satisfied node.replica dep
          | Some (Protocol.Counts entries) ->
            (* Section 6's count scheme: proceed once this node holds
               every counted update of the streams it subscribes to *)
            List.for_all
              (fun (writer, shard, c) ->
                Replica.stream_received node.replica ~shard ~writer >= c)
              entries
          | None -> false);
      (match Hashtbl.find_opt node.released (members, episode) with
      | Some (Protocol.Counts entries) -> node.barrier_expect <- entries
      | _ -> ());
      Hashtbl.remove node.released (members, episode);
      if recording p then
        record_finish p token
          (if members = [] then Op.Barrier episode
           else Op.Barrier_group { episode; members });
      if tracing p then begin
        let args = [ ("episode", string_of_int episode) ] in
        let args =
          if members = [] then args
          else
            ("members", String.concat "," (List.map string_of_int members)) :: args
        in
        trace_instant p ~args "sync_epoch";
        trace_span p ~t0 ~args
          (if members = [] then "barrier" else "barrier_subset")
      end);
  stability_sweep p.rt

let barrier p =
  Metrics.Counter.incr p.rt.hot.c_barrier;
  charge p;
  let node = p.rt.nodes.(p.id) in
  let episode = node.barrier_episode in
  node.barrier_episode <- episode + 1;
  barrier_generic p ~members:[] ~episode

let barrier_subset p members =
  Metrics.Counter.incr p.rt.hot.c_barrier_subset;
  charge p;
  let members = List.sort_uniq compare members in
  List.iter
    (fun m ->
      if m < 0 || m >= p.rt.cfg.Config.procs then
        invalid_arg
          (Printf.sprintf "Runtime.barrier_subset: member %d is not a process (0..%d)" m
             (p.rt.cfg.Config.procs - 1)))
    members;
  if not (List.mem p.id members) then
    invalid_arg "Runtime.barrier_subset: calling process must be a member";
  let node = p.rt.nodes.(p.id) in
  let counter =
    match Hashtbl.find_opt node.subset_episodes members with
    | Some r -> r
    | None ->
      let r = ref 0 in
      Hashtbl.add node.subset_episodes members r;
      r
  in
  let episode = !counter in
  incr counter;
  barrier_generic p ~members ~episode

let await p loc v =
  Metrics.Counter.incr p.rt.hot.c_await;
  charge p;
  flush_outbox p.rt p.id;
  let node = p.rt.nodes.(p.id) in
  let token = record_start p in
  let t0 = Engine.now p.rt.engine in
  let view =
    match p.rt.cfg.Config.placement with
    | Some pl ->
      (* awaits busy-wait the local PRAM view, which only ever receives
         updates of subscribed shards *)
      let shard = Mc_placement.Placement.shard_of_loc pl loc in
      if not (Replica.shard_subscribed node.replica ~shard) then
        invalid_arg
          "Runtime.await: cannot await an unsubscribed location under sharded \
           placement";
      Replica.pram_read node.replica
    | None -> (
      match p.rt.cfg.Config.await_label with
      | Op.Causal -> Replica.causal_read node.replica
      | Op.PRAM -> Replica.pram_read node.replica
      | Op.Group group -> Replica.group_read node.replica ~group)
  in
  timed p p.rt.hot.h_await (fun () ->
      Replica.wait_until node.replica ~hint:(Replica.Loc loc) (fun () ->
          fst (view loc) = v);
      if recording p then begin
        let numeric, tag = view loc in
        record_finish p token (Op.Await { loc; value = recorded_value ~numeric ~tag })
      end;
      if tracing p then trace_span p ~t0 ~args:[ ("loc", loc) ] "await");
  stability_sweep p.rt

let compute p cost =
  Metrics.Counter.incr p.rt.hot.c_compute;
  Engine.delay p.rt.engine cost

(* ------------------------------------------------------------------ *)
(* Results and statistics                                              *)
(* ------------------------------------------------------------------ *)

let history t =
  match t.recorder with
  | Some r -> Recorder.history r
  | None -> invalid_arg "Runtime.history: recording is disabled"

let peek t ~proc loc =
  if t.cfg.Config.placement <> None then
    fst (Replica.pram_read t.nodes.(proc).replica loc)
  else fst (Replica.causal_read t.nodes.(proc).replica loc)

let barrier_fanout t = t.barrier_fanout
let barrier_expect t ~proc = List.sort compare t.nodes.(proc).barrier_expect
let resident_objects t ~proc = Replica.resident_objects t.nodes.(proc).replica
let fetch_count t = Metrics.Counter.get t.hot.c_fetch

let metrics t = t.metrics
let tracer t = t.tracer

(* provenance of a recorded (non-counter) value: values carry unique
   tags, so at most one stream entry matches *)
let shard_write_source t ~loc ~value =
  let found = ref None in
  Hashtbl.iter
    (fun (writer, shard) l ->
      if !found = None then
        List.iter
          (fun (sseq, l', v) ->
            if !found = None && l' = loc && v = value then
              found := Some (writer, shard, sseq))
          !l)
    t.shard_log;
  !found

let op_label labels =
  match List.assoc_opt "op" labels with Some op -> op | None -> ""

(* the hot handles pre-create every series at zero; report only the
   ones actually used, as the seed's lazily-populated tables did. The
   registry lists are already sorted by (name, labels), hence by op. *)
let wait_summaries t =
  Metrics.Registry.histograms t.metrics
  |> List.filter_map (fun (name, labels, h) ->
         if name = "mc_wait_us" && Metrics.Histogram.count h > 0 then
           Some (op_label labels, Metrics.Histogram.summary h)
         else None)

let op_counts t =
  Metrics.Registry.counters t.metrics
  |> List.filter_map (fun (name, labels, c) ->
         if name = "mc_ops_total" && Metrics.Counter.get c > 0 then
           Some (op_label labels, Metrics.Counter.get c)
         else None)
