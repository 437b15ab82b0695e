module Engine = Mc_sim.Engine
module Pqueue = Mc_util.Pqueue

type cell = { mutable numeric : int; mutable tag : int }

(* a location's cells in the PRAM and the causal view; without causal
   delivery there is no causal view, and one cell serves as both *)
type cells = { pram : cell; causal : cell }

(* ------------------------------------------------------------------ *)
(* Watchers                                                            *)
(* ------------------------------------------------------------------ *)

(* Watchers are indexed by what their predicate depends on, so a state
   change re-evaluates only the ones whose guard can have changed. [Any]
   watchers are re-evaluated on every state change (the default).
   Ready watchers resume newest-first, via the installation sequence
   number. *)
type hint = Loc of Mc_history.Op.location | Clock | Any

type watcher = { wseq : int; hint : hint; pred : unit -> bool; resume : unit -> unit }

type obs = {
  o_reg : Mc_obs.Metrics.Registry.t;
  h_delay : Mc_obs.Metrics.Histogram.t; (* receipt -> causal apply, sim µs *)
  g_depth : Mc_obs.Metrics.Gauge.t; (* pending updates, per node *)
  h_batch : Mc_obs.Metrics.Histogram.t;
  arrivals : (int * int, float) Hashtbl.t; (* (writer, useq) -> arrival time *)
  (* per-shard gap-buffer series, shared across replicas through the
     registry (labelled by shard only — the high water aggregates) *)
  gap_gauges : (int, Mc_obs.Metrics.Gauge.t) Hashtbl.t;
  gap_buffered : (int, Mc_obs.Metrics.Counter.t) Hashtbl.t;
}

(* What holds a buffered head back: its view's applied count of a
   writer (re-examined when the view applies that writer), or — for a
   group view — the node's receipt count of a non-member (re-examined
   when an update from that writer is received). *)
type gate = Ready | Applied of int | Received of int

type t = {
  engine : Engine.t;
  node_id : int;
  mutable own_seq : int;
  applied_counts : int array;
  received_counts : int array;
  views : (Mc_history.Op.location, cells) Hashtbl.t;
      (* the PRAM and causal views: a location enters both together, so
         the keys are the PRAM view's locations *)
  mutable last_loc : Mc_history.Op.location;
  mutable last_cells : cells;
      (* the last location looked up, by identity: a receive's PRAM and
         causal applies share one lookup *)
  main : Protocol.update queue option;
      (* delivery into the causal view; [None] when [causal_delivery] is off *)
  mutable arr_counter : int;
  (* drain worklist scratch (empty between events): heads ready to apply
     in the current pass / the next pass, keyed by arrival order *)
  mutable wl_cur : int Pqueue.t;
  mutable wl_next : int Pqueue.t;
  mutable invalid : (Mc_history.Op.location, int array) Hashtbl.t option;
      (* demand mode's obligations, created by the first one *)
  (* demand-mode obligations parked on their first unsatisfied clock
     entry; an obligation is re-examined only when that writer's applied
     count advances *)
  inv_wait : Mc_history.Op.location list array;
  (* watcher buckets *)
  mutable w_any : watcher list;
  mutable w_clock : watcher list;
  w_loc : (Mc_history.Op.location, watcher list ref) Hashtbl.t;
  mutable next_wseq : int;
  (* dirty sets accumulated between watcher firings *)
  dirty_locs : (Mc_history.Op.location, unit) Hashtbl.t;
  mutable dirty_clock : bool;
  group_views : (int list * group_view) list;
  causal_delivery : bool;
      (* false under placement routing: updates may arrive with gaps in
         the writer sequence, so the global causal view is not
         maintained (per-shard causal views live in [shards] instead),
         and the per-writer arrays above are empty *)
  shards : (int, shard_state) Hashtbl.t; (* subscribed shards only *)
  mutable obs : obs option;
  (* fires after every remote shard update is applied to the shard view;
     the runtime uses it to measure write-visibility latency *)
  mutable on_shard_apply : (shard:int -> writer:int -> sseq:int -> unit) option;
}

(* A Section-3.2 group view: causality maintained across the group's
   members. An update applies once its dependencies on members are
   applied to this view and its dependencies on non-members have at
   least been received; the group relation only tracks edges touching
   members, so received counts are enough for the rest (see
   [make_group]). *)
and group_view = {
  g_view : (Mc_history.Op.location, cell) Hashtbl.t;
  g_queue : Protocol.update queue;
}

(* Sharded (partially-replicated) mode: per-subscribed-shard delivery
   state. Within a shard, updates are delivered causally against the
   shard-scoped clock ([Protocol.shard_update.su_sdep]); per-writer
   counts are kept sparse because a node only ever sees the writers
   active in the shards it subscribes to. *)
and shard_state = {
  sh_applied : (int, int) Hashtbl.t; (* writer -> applied sseq count *)
  sh_received : (int, int) Hashtbl.t; (* writer -> last sseq received *)
  sh_view : (Mc_history.Op.location, cell) Hashtbl.t;
  sh_queue : Protocol.shard_update queue;
}

(* One view's causal-delivery queue. The main causal view, every group
   view and every subscribed shard own one, and all of them run the same
   [enqueue]/[drain] below. A view supplies three functions:
   - [next t w]: the sequence number the view applies next from [w];
   - [gate t u]: the first gate blocking [u] — never the writer's own
     entry, which [next] covers — or [Ready];
   - [apply t u]: apply [u] to the view, advancing [next] of its writer.
   Channels are FIFO per writer (per (writer, shard) stream under
   placement), so the only update of writer [w] that can ever apply is
   its head [(w, next t w)]. While buffered, a head is either parked
   under its first blocking gate or queued in the worklist mid-drain;
   updates behind it just wait in [buffer]. *)
and 'u queue = {
  next : t -> int -> int;
  gate : t -> 'u -> gate;
  apply : t -> 'u -> unit;
  buffer : (int * int, 'u * int) Hashtbl.t; (* (writer, seq) -> update, arrival *)
  parked : (gate, int list) Hashtbl.t; (* gate -> writers whose head it blocks *)
  mutable depth : int; (* buffered updates *)
}

let set_shard_apply_observer t f = t.on_shard_apply <- Some f

let attach_metrics t reg =
  let module M = Mc_obs.Metrics in
  M.Registry.gauge_fn reg ~help:"locations resident in the local view"
    ~labels:[ ("node", string_of_int t.node_id) ]
    "mc_resident_objects"
    (fun () -> float_of_int (Hashtbl.length t.views));
  t.obs <-
    Some
      {
        o_reg = reg;
        h_delay =
          M.Registry.histogram reg
            ~help:"delay between receipt and causal application (us)"
            "mc_delivery_delay_us";
        g_depth =
          M.Registry.gauge reg ~help:"updates awaiting causal delivery"
            ~labels:[ ("node", string_of_int t.node_id) ]
            "mc_delivery_queue_depth";
        h_batch =
          M.Registry.histogram reg ~help:"updates per received batch"
            "mc_update_batch_size";
        arrivals = Hashtbl.create 64;
        gap_gauges = Hashtbl.create 8;
        gap_buffered = Hashtbl.create 8;
      }

let gap_gauge o shard =
  match Hashtbl.find_opt o.gap_gauges shard with
  | Some g -> g
  | None ->
    let g =
      Mc_obs.Metrics.Registry.gauge o.o_reg
        ~help:"shard updates parked on a sequence gap"
        ~labels:[ ("shard", string_of_int shard) ]
        "mc_shard_gap_depth"
    in
    Hashtbl.add o.gap_gauges shard g;
    g

let gap_counter o shard =
  match Hashtbl.find_opt o.gap_buffered shard with
  | Some c -> c
  | None ->
    let c =
      Mc_obs.Metrics.Registry.counter o.o_reg
        ~help:"shard updates that stalled in the gap buffer"
        ~labels:[ ("shard", string_of_int shard) ]
        "mc_shard_gap_buffered_total"
    in
    Hashtbl.add o.gap_buffered shard c;
    c

let id t = t.node_id
let applied t = Array.copy t.applied_counts
let applied_from t w = t.applied_counts.(w)
let received t = Array.copy t.received_counts

let pending_count t =
  let main = match t.main with Some q -> q.depth | None -> 0 in
  Hashtbl.fold (fun _ st acc -> acc + st.sh_queue.depth) t.shards main

let view_cell view loc =
  match Hashtbl.find view loc with
  | c -> c
  | exception Not_found ->
    let c = { numeric = 0; tag = 0 } in
    Hashtbl.add view loc c;
    c

let read_view view loc =
  match Hashtbl.find view loc with
  | c -> (c.numeric, c.tag)
  | exception Not_found -> (0, 0)

let apply_cell c ~numeric ~tag ~is_dec =
  if is_dec then c.numeric <- c.numeric - numeric
  else begin
    c.numeric <- numeric;
    c.tag <- tag
  end

let apply_update c (u : Protocol.update) =
  apply_cell c ~numeric:u.numeric ~tag:u.tag ~is_dec:u.is_dec

let apply_payload view ~loc ~numeric ~tag ~is_dec =
  apply_cell (view_cell view loc) ~numeric ~tag ~is_dec

(* raises [Not_found] for a location neither view holds *)
let find_cells t loc =
  if loc == t.last_loc then t.last_cells
  else begin
    let c = Hashtbl.find t.views loc in
    t.last_loc <- loc;
    t.last_cells <- c;
    c
  end

let cells t loc =
  match find_cells t loc with
  | c -> c
  | exception Not_found ->
    let pram = { numeric = 0; tag = 0 } in
    let c =
      { pram; causal = (if t.causal_delivery then { numeric = 0; tag = 0 } else pram) }
    in
    Hashtbl.add t.views loc c;
    t.last_loc <- loc;
    t.last_cells <- c;
    c

let causal_read t loc =
  match find_cells t loc with
  | c -> (c.causal.numeric, c.causal.tag)
  | exception Not_found -> (0, 0)

let pram_read t loc =
  match find_cells t loc with
  | c -> (c.pram.numeric, c.pram.tag)
  | exception Not_found -> (0, 0)

let find_group t group =
  let key = List.sort_uniq compare group in
  match List.assoc_opt key t.group_views with
  | Some g -> g
  | None ->
    invalid_arg
      ("Replica.group_read: group not registered: {"
      ^ String.concat "," (List.map string_of_int key)
      ^ "}")

let group_read t ~group loc = read_view (find_group t group).g_view loc

(* first clock entry not yet applied locally, skipping [except]; [-1]
   means satisfied *)
let blocking_index t ~except dep =
  let applied = t.applied_counts and n = Array.length dep in
  let j = ref 0 in
  while !j < n && (!j = except || applied.(!j) >= dep.(!j)) do
    incr j
  done;
  if !j < n then !j else -1

let dep_satisfied t dep = blocking_index t ~except:(-1) dep < 0

(* ------------------------------------------------------------------ *)
(* Watcher firing                                                      *)
(* ------------------------------------------------------------------ *)

(* only a location some watcher waits on can matter to [fire_dirty]; no
   watcher is installed between a change and the sweep that ends it *)
let mark_dirty_loc t loc =
  if
    Hashtbl.length t.w_loc > 0
    && Hashtbl.mem t.w_loc loc
    && not (Hashtbl.mem t.dirty_locs loc)
  then Hashtbl.add t.dirty_locs loc ()

let put_back t w =
  match w.hint with
  | Any -> t.w_any <- w :: t.w_any
  | Clock -> t.w_clock <- w :: t.w_clock
  | Loc loc -> (
    match Hashtbl.find_opt t.w_loc loc with
    | Some r -> r := w :: !r
    | None -> Hashtbl.add t.w_loc loc (ref [ w ]))

(* Fire the candidate watchers in descending installation order (the
   seed resumed ready watchers newest-first); predicates that still fail
   return to their bucket. A fired resume only schedules the suspended
   fiber, so no predicate can change state during the sweep. *)
let fire_candidates t candidates =
  match candidates with
  | [] -> ()
  | _ ->
    let sorted = List.sort (fun a b -> compare b.wseq a.wseq) candidates in
    List.iter (fun w -> if w.pred () then w.resume () else put_back t w) sorted

(* a sweep with no watcher to re-evaluate allocates nothing *)
let fire_dirty t =
  let clock = t.dirty_clock && t.w_clock <> [] in
  t.dirty_clock <- false;
  if t.w_any <> [] || clock || Hashtbl.length t.dirty_locs > 0 then begin
    let candidates = ref (List.rev t.w_any) in
    t.w_any <- [];
    if clock then begin
      candidates := List.rev_append t.w_clock !candidates;
      t.w_clock <- []
    end;
    Hashtbl.iter
      (fun loc () ->
        match Hashtbl.find_opt t.w_loc loc with
        | Some r ->
          candidates := List.rev_append !r !candidates;
          Hashtbl.remove t.w_loc loc
        | None -> ())
      t.dirty_locs;
    Hashtbl.reset t.dirty_locs;
    fire_candidates t !candidates
  end

(* everything counts as changed: every watcher is re-evaluated *)
let notify t =
  t.dirty_clock <- true;
  Hashtbl.iter (fun loc _ -> mark_dirty_loc t loc) t.w_loc;
  fire_dirty t

(* ------------------------------------------------------------------ *)
(* Demand-mode invalidation                                            *)
(* ------------------------------------------------------------------ *)

let mark_invalid t loc dep =
  let k = blocking_index t ~except:(-1) dep in
  if k >= 0 then begin
    let invalid =
      match t.invalid with
      | Some h -> h
      | None ->
        let h = Hashtbl.create 8 in
        t.invalid <- Some h;
        h
    in
    match Hashtbl.find_opt invalid loc with
    | Some prev ->
      (* keep the existing parking: the parked clock was unsatisfied and
         the merged clock only grows entrywise *)
      Hashtbl.replace invalid loc
        (Array.init (Array.length dep) (fun j -> max prev.(j) dep.(j)))
    | None ->
      Hashtbl.replace invalid loc dep;
      t.inv_wait.(k) <- loc :: t.inv_wait.(k)
  end

let location_blocked t loc =
  match t.invalid with
  | None -> false
  | Some invalid -> (
    match Hashtbl.find_opt invalid loc with
    | Some dep -> not (dep_satisfied t dep)
    | None -> false)

(* re-examine the obligations parked on writer [w] after its applied
   count advanced: satisfied ones clear (waking readers of the
   location), the rest re-park on their next unsatisfied entry *)
let recheck_invalid t w =
  match (t.inv_wait.(w), t.invalid) with
  | [], _ | _, None -> ()
  | locs, Some invalid ->
    t.inv_wait.(w) <- [];
    List.iter
      (fun loc ->
        match Hashtbl.find_opt invalid loc with
        | None -> ()
        | Some dep ->
          let k = blocking_index t ~except:(-1) dep in
          if k < 0 then begin
            Hashtbl.remove invalid loc;
            mark_dirty_loc t loc
          end
          else t.inv_wait.(k) <- loc :: t.inv_wait.(k))
      locs

(* ------------------------------------------------------------------ *)
(* Delivery queues                                                     *)
(* ------------------------------------------------------------------ *)

(* The drain reproduces a rescan fixpoint exactly: buffer every update
   in arrival order, then walk the buffer in passes, each applying
   whatever is deliverable at its scan position, until a pass applies
   nothing. The apply ORDER is observable — two concurrent updates to
   one location resolve last-writer-wins — so it is part of the
   contract. An update ends up applied at lexicographic key (pass,
   arrival position): one enabled by an application at arrival position
   [a] joins the SAME pass if it sits after [a] in arrival order and the
   NEXT pass otherwise; updates deliverable when the event starts form
   pass 1. A ready head enters a two-heap worklist (current pass / next
   pass, ordered by arrival) whose pops follow exactly that order. Once
   queued a head stays deliverable: the counts it gates on only grow.
   The rescan itself is kept in [test/oracle.ml] as the differential
   oracle.

   Nearly every update arrives as the next one of its writer with
   nothing buffered in its view and its clock already satisfied: the
   drain would then apply it at once and find nothing else to do, since
   nothing is buffered for it to enable. [offer] applies such an update
   directly, without buffering it. *)

let new_queue ~next ~gate ~apply =
  { next; gate; apply; buffer = Hashtbl.create 8; parked = Hashtbl.create 8; depth = 0 }

let pop_ready t =
  if Pqueue.is_empty t.wl_cur then
    if Pqueue.is_empty t.wl_next then None
    else begin
      (* pass boundary: promote the accumulated next-pass heads *)
      let tmp = t.wl_cur in
      t.wl_cur <- t.wl_next;
      t.wl_next <- tmp;
      let arr, w = Pqueue.pop_min t.wl_cur in
      Some (int_of_float arr, w)
    end
  else
    let arr, w = Pqueue.pop_min t.wl_cur in
    Some (int_of_float arr, w)

(* examine writer [w]'s head: park it under its first blocking gate, or
   queue it for the pass implied by the enabling arrival position
   [from_arr] ([-1] seeds pass 1 at event start) *)
let check_head t q ~from_arr w =
  match Hashtbl.find_opt q.buffer (w, q.next t w) with
  | None -> ()
  | Some (u, arr) -> (
    match q.gate t u with
    | Ready ->
      Pqueue.add
        (if arr > from_arr then t.wl_cur else t.wl_next)
        ~priority:(float_of_int arr) w
    | blocked ->
      let parked = Option.value (Hashtbl.find_opt q.parked blocked) ~default:[] in
      Hashtbl.replace q.parked blocked (w :: parked))

(* re-examine the heads parked under [gate] after it advanced *)
let wake t q ~from_arr gate =
  match Hashtbl.find_opt q.parked gate with
  | None -> ()
  | Some parked ->
    Hashtbl.remove q.parked gate;
    List.iter (check_head t q ~from_arr) parked

(* buffer [u], the [seq]-th update of [writer]; an arriving head can
   apply in pass 1 (a receipt alone advances no applied count) *)
let enqueue t q ~writer ~seq u =
  t.arr_counter <- t.arr_counter + 1;
  Hashtbl.add q.buffer (writer, seq) (u, t.arr_counter);
  q.depth <- q.depth + 1;
  if seq = q.next t writer then check_head t q ~from_arr:(-1) writer

let rec drain t q =
  let rec go () =
    match pop_ready t with
    | None -> ()
    | Some (arr, w) ->
      let key = (w, q.next t w) in
      let u, _ = Hashtbl.find q.buffer key in
      Hashtbl.remove q.buffer key;
      q.depth <- q.depth - 1;
      q.apply t u;
      check_head t q ~from_arr:arr w;
      wake t q ~from_arr:arr (Applied w);
      go ()
  in
  go ()

(* receive [u], the [seq]-th update of [writer], into [q]'s view *)
and offer t q ~writer ~seq u =
  if q.depth = 0 && seq = q.next t writer && q.gate t u == Ready then begin
    t.arr_counter <- t.arr_counter + 1;
    q.apply t u
  end
  else begin
    enqueue t q ~writer ~seq u;
    drain t q
  end

(* ------------------------------------------------------------------ *)
(* Views                                                               *)
(* ------------------------------------------------------------------ *)

(* main causal view. An update is never gated on the receiving node
   itself: FIFO channels give [dep.(self) <= applied.(self)] at receipt,
   so a head parked on self — which could never be woken — cannot
   happen. *)
let main_next t w = t.applied_counts.(w) + 1

let main_gate t (u : Protocol.update) =
  let k = blocking_index t ~except:u.writer u.dep in
  if k < 0 then Ready else Applied k

let causal_apply t (u : Protocol.update) =
  (match t.obs with
  | Some o -> (
    let key = (u.writer, u.useq) in
    match Hashtbl.find_opt o.arrivals key with
    | Some arrived ->
      Hashtbl.remove o.arrivals key;
      Mc_obs.Metrics.Histogram.observe o.h_delay (Engine.now t.engine -. arrived)
    | None -> ())
  | None -> ());
  apply_update (cells t u.loc).causal u;
  mark_dirty_loc t u.loc;
  t.applied_counts.(u.writer) <- t.applied_counts.(u.writer) + 1;
  t.dirty_clock <- true;
  recheck_invalid t u.writer

(* group view: member entries gate on the view's own applies, non-member
   entries on receipt *)
let group_gate members g_applied t (u : Protocol.update) =
  let dep = u.dep and n = Array.length u.dep in
  let j = ref 0 in
  while
    !j < n
    && (!j = u.writer
       || (if members.(!j) then g_applied.(!j) else t.received_counts.(!j)) >= dep.(!j))
  do
    incr j
  done;
  if !j = n then Ready else if members.(!j) then Applied !j else Received !j

let group_apply g_view g_applied t (u : Protocol.update) =
  apply_update (view_cell g_view u.loc) u;
  mark_dirty_loc t u.loc;
  g_applied.(u.writer) <- g_applied.(u.writer) + 1

let make_group ~n members_list =
  let members = Array.make n false in
  List.iter
    (fun m ->
      if m < 0 || m >= n then invalid_arg "Replica.create: group member out of range";
      members.(m) <- true)
    members_list;
  let g_view = Hashtbl.create 32 in
  let g_applied = Array.make n 0 (* updates applied to the view, per writer *) in
  ( List.sort_uniq compare members_list,
    {
      g_view;
      g_queue =
        new_queue
          ~next:(fun _ w -> g_applied.(w) + 1)
          ~gate:(group_gate members g_applied)
          ~apply:(group_apply g_view g_applied);
    } )

(* shard view *)
let sh_get sh_applied w =
  match Hashtbl.find_opt sh_applied w with Some c -> c | None -> 0

let shard_gate sh_applied _ (su : Protocol.shard_update) =
  match List.find_opt (fun (j, d) -> sh_get sh_applied j < d) su.su_sdep with
  | Some (j, _) -> Applied j
  | None -> Ready

let shard_apply sh_view sh_applied t (su : Protocol.shard_update) =
  apply_payload sh_view ~loc:su.su_loc ~numeric:su.su_numeric ~tag:su.su_tag
    ~is_dec:su.su_is_dec;
  Hashtbl.replace sh_applied su.su_writer su.su_sseq;
  mark_dirty_loc t su.su_loc;
  match t.on_shard_apply with
  | Some f when su.su_writer <> t.node_id ->
    f ~shard:su.su_shard ~writer:su.su_writer ~sseq:su.su_sseq
  | _ -> ()

let make_shard () =
  let sh_applied = Hashtbl.create 8 and sh_view = Hashtbl.create 32 in
  {
    sh_applied;
    sh_received = Hashtbl.create 8;
    sh_view;
    sh_queue =
      new_queue
        ~next:(fun _ w -> sh_get sh_applied w + 1)
        ~gate:(shard_gate sh_applied)
        ~apply:(shard_apply sh_view sh_applied);
  }

let create engine ~id ~n ?(groups = []) ?(causal_delivery = true) () =
  (* per-writer state is dense only where every writer reaches this
     node: under placement routing it lives, sparse, in the shards *)
  let n = if causal_delivery then n else 0 in
  let unused = { numeric = 0; tag = 0 } in
  {
    engine;
    node_id = id;
    own_seq = 0;
    applied_counts = Array.make n 0;
    received_counts = Array.make n 0;
    views = Hashtbl.create 64;
    last_loc = String.make 1 '\000' (* matches no caller's location *);
    last_cells = { pram = unused; causal = unused };
    main =
      (if causal_delivery then
         Some (new_queue ~next:main_next ~gate:main_gate ~apply:causal_apply)
       else None);
    arr_counter = 0;
    wl_cur = Pqueue.create ();
    wl_next = Pqueue.create ();
    invalid = None;
    inv_wait = Array.make n [];
    w_any = [];
    w_clock = [];
    w_loc = Hashtbl.create 8;
    next_wseq = 0;
    dirty_locs = Hashtbl.create 8;
    dirty_clock = false;
    group_views = (if causal_delivery then List.map (make_group ~n) groups else []);
    causal_delivery;
    shards = Hashtbl.create 8;
    obs = None;
    on_shard_apply = None;
  }

(* ------------------------------------------------------------------ *)
(* Receive                                                             *)
(* ------------------------------------------------------------------ *)

let receive_one t (u : Protocol.update) =
  if u.writer = t.node_id then
    invalid_arg "Replica.receive: update from self (already applied locally)";
  t.dirty_clock <- true;
  apply_update (cells t u.loc).pram u;
  mark_dirty_loc t u.loc;
  if t.causal_delivery then begin
    t.received_counts.(u.writer) <- t.received_counts.(u.writer) + 1;
    (match t.obs with
    | Some o -> Hashtbl.replace o.arrivals (u.writer, u.useq) (Engine.now t.engine)
    | None -> ());
    (match t.main with
    | Some q -> offer t q ~writer:u.writer ~seq:u.useq u
    | None -> ());
    if t.group_views <> [] then
    List.iter
      (fun (_, g) ->
        let q = g.g_queue in
        if q.depth = 0 then offer t q ~writer:u.writer ~seq:u.useq u
        else begin
          enqueue t q ~writer:u.writer ~seq:u.useq u;
          (* the receipt can also unblock heads gated on this writer's
             receipt count; they join pass 1 *)
          wake t q ~from_arr:(-1) (Received u.writer);
          drain t q
        end)
      t.group_views
  end;
  match t.obs with
  | Some o -> Mc_obs.Metrics.Gauge.set o.g_depth (float_of_int (pending_count t))
  | None -> ()

let receive t u =
  receive_one t u;
  fire_dirty t

let receive_many t us =
  (match t.obs with
  | Some o ->
    Mc_obs.Metrics.Histogram.observe o.h_batch (float_of_int (List.length us))
  | None -> ());
  List.iter (receive_one t) us;
  fire_dirty t

(* ------------------------------------------------------------------ *)
(* Local operations                                                    *)
(* ------------------------------------------------------------------ *)

let make_update t ~loc ~numeric ~tag ~is_dec =
  if not t.causal_delivery then
    invalid_arg "Replica: a broadcast update needs causal delivery (use shard_write)";
  (* dependency clock: applied counts before this update; the writer's
     own entry equals own_seq, i.e. useq - 1 *)
  let dep = Array.copy t.applied_counts in
  t.own_seq <- t.own_seq + 1;
  let u : Protocol.update =
    { writer = t.node_id; useq = t.own_seq; dep; loc; numeric; tag; is_dec }
  in
  let c = cells t loc in
  apply_update c.causal u;
  apply_update c.pram u;
  mark_dirty_loc t loc;
  t.applied_counts.(t.node_id) <- t.applied_counts.(t.node_id) + 1;
  t.received_counts.(t.node_id) <- t.received_counts.(t.node_id) + 1;
  t.dirty_clock <- true;
  (* a remote update's dependency on us never exceeds the updates we had
     already issued when it was sent, and every view counts each of ours
     (applied and received) as it is made, so no head is ever gated on
     us and no view needs a drain here *)
  if t.group_views <> [] then List.iter (fun (_, g) -> g.g_queue.apply t u) t.group_views;
  fire_dirty t;
  u

let local_write t ~loc ~numeric ~tag = make_update t ~loc ~numeric ~tag ~is_dec:false

let local_dec t ~loc ~amount =
  let observed, _ = causal_read t loc in
  let u = make_update t ~loc ~numeric:amount ~tag:0 ~is_dec:true in
  (u, observed)

(* entry mode: install a value carried by a lock grant directly into
   both views; these values never traveled as counted updates, so the
   vector bookkeeping is untouched (the lock discipline provides the
   ordering) *)
let install_direct t ~loc ~numeric ~tag =
  let c = cells t loc in
  apply_cell c.causal ~numeric ~tag ~is_dec:false;
  apply_cell c.pram ~numeric ~tag ~is_dec:false;
  List.iter
    (fun (_, g) -> apply_payload g.g_view ~loc ~numeric ~tag ~is_dec:false)
    t.group_views;
  mark_dirty_loc t loc;
  fire_dirty t

let wait_until t ?(hint = Any) pred =
  if not (pred ()) then
    Engine.suspend t.engine (fun resume ->
        let w = { wseq = t.next_wseq; hint; pred; resume } in
        t.next_wseq <- t.next_wseq + 1;
        put_back t w)

(* ------------------------------------------------------------------ *)
(* Sharded (partially-replicated) mode                                 *)
(* ------------------------------------------------------------------ *)

let find_shard t shard =
  match Hashtbl.find_opt t.shards shard with
  | Some st -> st
  | None ->
    invalid_arg
      (Printf.sprintf "Replica.%d: not subscribed to shard %d" t.node_id shard)

let shard_subscribed t ~shard = Hashtbl.mem t.shards shard

let subscribe_shard t ?(clock = []) ?(values = []) ~shard () =
  let st = make_shard () in
  List.iter (fun (w, c) -> Hashtbl.replace st.sh_applied w c) clock;
  (* state transfer: the snapshot values enter both the shard view and
     the PRAM view (they are this node's local copy now) *)
  List.iter
    (fun (loc, numeric, tag) ->
      apply_payload st.sh_view ~loc ~numeric ~tag ~is_dec:false;
      apply_cell (cells t loc).pram ~numeric ~tag ~is_dec:false;
      mark_dirty_loc t loc)
    values;
  Hashtbl.replace t.shards shard st;
  fire_dirty t

let unsubscribe_shard t ~shard = Hashtbl.remove t.shards shard

(* a remote shard update never depends on more of our writes than we
   had issued when it was sent, and the shard view counts each of ours
   as it is made, so our own write unblocks nothing and needs no drain *)
let shard_make t ~shard ~loc ~numeric ~tag ~is_dec =
  let st = find_shard t shard in
  let sseq = sh_get st.sh_applied t.node_id + 1 in
  let sdep =
    Hashtbl.fold
      (fun j c acc -> if j <> t.node_id && c > 0 then (j, c) :: acc else acc)
      st.sh_applied []
    |> List.sort compare
  in
  let su : Protocol.shard_update =
    {
      su_shard = shard;
      su_writer = t.node_id;
      su_sseq = sseq;
      su_sdep = sdep;
      su_loc = loc;
      su_numeric = numeric;
      su_tag = tag;
      su_is_dec = is_dec;
    }
  in
  apply_cell (cells t loc).pram ~numeric ~tag ~is_dec;
  st.sh_queue.apply t su;
  t.dirty_clock <- true;
  fire_dirty t;
  su

let shard_write t ~shard ~loc ~numeric ~tag =
  shard_make t ~shard ~loc ~numeric ~tag ~is_dec:false

let shard_dec t ~shard ~loc ~amount =
  let st = find_shard t shard in
  let observed, _ = read_view st.sh_view loc in
  let su = shard_make t ~shard ~loc ~numeric:amount ~tag:0 ~is_dec:true in
  (su, observed)

let shard_receive t (su : Protocol.shard_update) =
  if su.su_writer = t.node_id then
    invalid_arg "Replica.shard_receive: update from self";
  match Hashtbl.find_opt t.shards su.su_shard with
  | None -> () (* gap-tolerant: not subscribed, ignore *)
  | Some st when su.su_sseq <= sh_get st.sh_applied su.su_writer ->
    (* already covered by the snapshot installed at subscription time
       (or a duplicate): its payload is reflected in the snapshot
       values, so applying it again would go back in time *)
    ()
  | Some st ->
    (* per-stream FIFO: the last sequence number received is the count *)
    Hashtbl.replace st.sh_received su.su_writer su.su_sseq;
    t.dirty_clock <- true;
    apply_cell (cells t su.su_loc).pram ~numeric:su.su_numeric ~tag:su.su_tag
      ~is_dec:su.su_is_dec;
    mark_dirty_loc t su.su_loc;
    let q = st.sh_queue in
    let before = q.depth in
    offer t q ~writer:su.su_writer ~seq:su.su_sseq su;
    (match t.obs with
    | Some o ->
      (* nothing applied: it arrived ahead of a sequence gap *)
      if q.depth > before then Mc_obs.Metrics.Counter.incr (gap_counter o su.su_shard);
      Mc_obs.Metrics.Gauge.set o.g_depth (float_of_int (pending_count t));
      Mc_obs.Metrics.Gauge.set (gap_gauge o su.su_shard) (float_of_int q.depth)
    | None -> ());
    fire_dirty t

let shard_read t ~shard loc = read_view (find_shard t shard).sh_view loc

let stream_received t ~shard ~writer =
  match Hashtbl.find_opt t.shards shard with
  | None -> 0
  | Some st -> max (sh_get st.sh_applied writer) (sh_get st.sh_received writer)

let own_streams t =
  Hashtbl.fold
    (fun shard st acc ->
      match sh_get st.sh_applied t.node_id with 0 -> acc | c -> (shard, c) :: acc)
    t.shards []
  |> List.sort compare

let shard_clock t ~shard =
  Hashtbl.fold (fun w c acc -> (w, c) :: acc) (find_shard t shard).sh_applied []
  |> List.sort compare

let resident_objects t = Hashtbl.length t.views

let shard_queue_depths t =
  Hashtbl.fold (fun shard st acc -> (shard, st.sh_queue.depth) :: acc) t.shards []
  |> List.sort compare

let shard_pending_len t ~shard =
  match Hashtbl.find_opt t.shards shard with
  | Some st -> st.sh_queue.depth
  | None -> 0
