(* Incremental structural engine behind the online consistency pipeline.

   The engine consumes recorder events ([Sink.on_inv] / [Sink.on_op]) and
   finalizes every operation exactly once, in an order that is topological
   for the full causality covering graph:

   - [U] edges: the program-order chain covering (edges from the last
     completed operation of every chain of the process, captured at
     invocation time), over a greedy first-fit decomposition: an
     invocation takes the first chain of its process that is not busy.
   - [S] edges: the structural sync covering — lock epoch surfaces and
     intra-epoch pairs (identical to [History.sync_order_reduced]'s lock
     part), plus barrier first-following / last-preceding episode edges
     reduced to per-chain extremal operations (identical to the offline
     barrier covering).
   - [RF] edges: reads-from, resolved through a per-location, per-value
     writer registry; a read of a not-yet-written value parks until its
     writer completes (or until close, when no writer exists).

   Since every per-reader family relation is the closure of a subgraph of
   this covering, one finalization order serves every family: a checker
   can fold per-family clocks in a single pass over [on_finalize].

   Operations link to each other by reference (edges, dependants, chain
   tails, episode and epoch members, parked readers, buffered grants), so
   no step looks an id up; a finalized node carries the state its
   consumer returned, handed back through later operations' in-edges.

   Memory is bounded by the in-flight window: a finalized node is
   retired — announced via [on_retire] and dropped from the engine's
   structures — as soon as its reference count drops to zero.
   References are held by (a) the chain tail (released when a later op
   completes on the chain), (b) pending covering in-edges (released when
   the dependent finalizes), (c) invocation snapshots of the other
   chains' tails (released when the invoking op completes), (d) episode
   pre-sources and members (released when the episode closes resp.
   stops being any process's latest episode), and (e) the lock machine's
   current-epoch members and surface sources (released as epochs close
   and are superseded). A writer stays reachable from its value's
   registry until the value is dead.

   Restrictions (see DESIGN.md and [meets_restrictions]): values are
   written at most once per location, the initial value 0 is never
   written, barrier indices are not reused across rounds, per-process
   barriers do not overlap, and a lock's grant numbers are distinct and
   non-negative. Histories violating these are still processed, but the
   streaming verdicts may diverge from the offline checker. *)

module Locs = Hashtbl.Make (String)

module Vals = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash v = v land max_int
end)

type 'a edge = U of 'a node | S of 'a node | RF of 'a node

and 'a node = {
  n_op : Op.t;
  n_chain : int;
  n_rank : int;
  mutable n_read : 'a vstate; (* the value the op reads, [no_value] for none *)
  mutable n_in : 'a edge list;
  mutable n_waits : int; (* unfinalized sources and open slots *)
  mutable n_deps : 'a node list; (* dependants waiting on this node *)
  mutable n_state : 'a option; (* the consumer's state, once finalized *)
  mutable n_refs : int;
  mutable n_next : 'a node; (* link of the ready stack *)
}

(* One written or read value of a location. *)
and 'a vstate = {
  v_loc : Op.location;
  v_value : Op.value;
  v_table : 'a vstate Vals.t; (* its location's values *)
  mutable v_writers : 'a node list;
  mutable v_parked : 'a node list; (* completed readers awaiting the writer *)
  mutable v_pending : int; (* completed (in a replay: all), not yet finalized readers *)
  mutable v_dead : bool;
  mutable v_dead_sent : bool;
}

type 'a src = 'a node
type 'a info = { op : Op.t; chain : int; rank : int; in_edges : 'a edge list }

type 'a callbacks = {
  on_finalize : 'a info -> 'a;
  on_retire : int -> unit;
  on_dead_value : loc:Op.location -> value:Op.value -> unit;
  on_end : unit -> unit;
}

let state n =
  match n.n_state with
  | Some s -> s
  | None -> invalid_arg "Stream.state: operation not finalized"

type 'a episode = {
  e_expected : int;
  mutable e_members : 'a node list;
  mutable e_pre : 'a node list; (* first-following sources, ref-held *)
  mutable e_waiters : 'a node list; (* ops awaiting last-preceding edges *)
  mutable e_closed : bool;
  mutable e_holds : int; (* latest-episode + invocation holds *)
  mutable e_released : bool;
}

(* A chain holds at most one open invocation: its own tail is stable
   until that op completes, so the snapshot keeps only the other chains'
   tails (none for a one-chain process). *)
type 'a chain = {
  c_gid : int;
  mutable c_busy : bool;
  mutable c_count : int;
  mutable c_last : 'a node; (* last completed op, [none] before the first *)
  mutable c_lp_mark : 'a episode option;
  mutable c_inv : int; (* the open invocation's seq *)
  mutable c_others : 'a node list; (* other chains' tails, ref-held *)
  mutable c_lp : 'a episode option; (* episode owed last-preceding edges, held *)
}

type 'a pstate = {
  mutable p_chains : 'a chain list; (* creation order: first-fit target *)
  mutable p_last_barrier_inv : int;
  mutable p_last_episode : 'a episode option;
}

type 'a read_run = {
  mutable run_ops : 'a node list; (* reverse grant order *)
  run_open : (int, 'a node) Hashtbl.t; (* proc -> open read lock *)
  mutable run_matched : 'a node list; (* read locks with an intra successor *)
}

type 'a epoch_state = Idle | Write_open of 'a node | Read_run of 'a read_run

type 'a lockstate = {
  mutable l_next : int; (* next expected grant number *)
  l_buffer : (int, 'a node) Hashtbl.t; (* out-of-order grants *)
  mutable l_prev_srcs : 'a node list; (* surface sources, ref-held *)
  mutable l_cur : 'a epoch_state;
}

type 'a t = {
  cb : 'a callbacks;
  n_procs : int;
  pstates : 'a pstate array;
  mutable n_chains : int;
  episodes : (int list * int, 'a episode) Hashtbl.t;
  locks : (string, 'a lockstate) Hashtbl.t;
  values : 'a vstate Vals.t Locs.t;
  none : 'a node; (* no node: an empty chain tail, the ready stack's end *)
  no_value : 'a vstate; (* no value: what a lock or barrier op reads *)
  mutable ready : 'a node;
  mutable ops_seen : int;
  mutable n_finalized : int;
  mutable n_resident : int;
  mutable max_resident : int;
  mutable closed : bool;
}

let new_vstate v_table v_loc v_value =
  { v_loc; v_value; v_table; v_writers = []; v_parked = []; v_pending = 0; v_dead = false; v_dead_sent = false }

let create ~procs cb =
  if procs <= 0 then invalid_arg "Stream.create: need at least one process";
  let no_value = new_vstate (Vals.create 1) "" 0 in
  let op = { Op.id = -1; proc = -1; kind = Op.Barrier (-1); inv_seq = -1; resp_seq = -1; sync_seq = -1 } in
  let rec none =
    { n_op = op; n_chain = -1; n_rank = -1; n_read = no_value; n_in = []; n_waits = 0; n_deps = [];
      n_state = None; n_refs = 0; n_next = none } in
  {
    cb;
    n_procs = procs;
    pstates =
      Array.init procs (fun _ ->
          { p_chains = []; p_last_barrier_inv = -1; p_last_episode = None });
    n_chains = 0;
    episodes = Hashtbl.create 8;
    locks = Hashtbl.create 8;
    values = Locs.create 64;
    none;
    no_value;
    ready = none;
    ops_seen = 0;
    n_finalized = 0;
    n_resident = 0;
    max_resident = 0;
    closed = false;
  }

let chains t = t.n_chains
let max_resident t = t.max_resident
let final n = match n.n_state with Some _ -> true | None -> false

(* ------------------------------------------------------------------ *)
(* Retirement refcounting                                              *)
(* ------------------------------------------------------------------ *)

let retire t n =
  t.n_resident <- t.n_resident - 1;
  t.cb.on_retire n.n_op.Op.id

let incref n = n.n_refs <- n.n_refs + 1

let decref t n =
  n.n_refs <- n.n_refs - 1;
  if n.n_refs = 0 && final n then retire t n

(* [List.iter (f x)] on the hot path, without a closure per call *)
let rec each f x = function
  | [] -> ()
  | y :: rest ->
    f x y;
    each f x rest

(* ------------------------------------------------------------------ *)
(* Edges and finalization                                              *)
(* ------------------------------------------------------------------ *)

(* Covering (U/S) edge: the source must stay resident until the dependent
   finalizes, so the checker can join its clocks. *)
let add_cov (n : 'a node) s ~sync =
  n.n_in <- (if sync then S s else U s) :: n.n_in;
  incref s;
  if not (final s) then begin
    s.n_deps <- n :: s.n_deps;
    n.n_waits <- n.n_waits + 1
  end

let add_u n s = add_cov n s ~sync:false
let add_s n s = add_cov n s ~sync:true

(* Reads-from edge: no reference — the checker keeps per-value writer
   summaries alive independently of node residence. *)
let add_rf (n : 'a node) s =
  if s != n then begin
    n.n_in <- RF s :: n.n_in;
    if not (final s) then begin
      s.n_deps <- n :: s.n_deps;
      n.n_waits <- n.n_waits + 1
    end
  end

let send_dead t vs =
  if not vs.v_dead_sent then begin
    vs.v_dead_sent <- true;
    Vals.remove vs.v_table vs.v_value;
    t.cb.on_dead_value ~loc:vs.v_loc ~value:vs.v_value
  end

let push_ready t n =
  n.n_next <- t.ready;
  t.ready <- n

let release t = function U s | S s -> decref t s | RF _ -> ()

let release_dep t d =
  d.n_waits <- d.n_waits - 1;
  if d.n_waits = 0 && not (final d) then push_ready t d

let finalize t (n : 'a node) =
  t.n_finalized <- t.n_finalized + 1;
  let s =
    t.cb.on_finalize { op = n.n_op; chain = n.n_chain; rank = n.n_rank; in_edges = n.n_in }
  in
  n.n_state <- Some s;
  each release t n.n_in;
  n.n_in <- [];
  let vs = n.n_read in
  if vs != t.no_value then begin
    vs.v_pending <- vs.v_pending - 1;
    if vs.v_dead && vs.v_pending <= 0 then send_dead t vs
  end;
  each release_dep t n.n_deps;
  n.n_deps <- [];
  if n.n_refs = 0 then retire t n

(* finalize every ready node; no callback feeds the engine, so this
   never runs nested *)
let drain t =
  while t.ready != t.none do
    let n = t.ready in
    t.ready <- n.n_next;
    n.n_next <- t.none;
    finalize t n
  done

let enqueue_if_ready t (n : 'a node) =
  if (not (final n)) && n.n_waits = 0 then begin
    push_ready t n;
    drain t
  end

let release_slot t n =
  n.n_waits <- n.n_waits - 1;
  enqueue_if_ready t n

(* ------------------------------------------------------------------ *)
(* Barrier episodes                                                    *)
(* ------------------------------------------------------------------ *)

let find_episode t key expected =
  match Hashtbl.find_opt t.episodes key with
  | Some e -> e
  | None ->
    let e = { e_expected = expected; e_members = []; e_pre = []; e_waiters = []; e_closed = false;
              e_holds = 0; e_released = false } in
    Hashtbl.add t.episodes key e;
    e

let maybe_release_episode t e =
  if e.e_closed && e.e_holds = 0 && not e.e_released then begin
    e.e_released <- true;
    each decref t e.e_members
  end

let episode_hold e = e.e_holds <- e.e_holds + 1

let episode_unhold t e =
  e.e_holds <- e.e_holds - 1;
  maybe_release_episode t e

let close_episode t e =
  if not e.e_closed then begin
    e.e_closed <- true;
    (* first-following edges: windowed chain-maximal sources into every
       member; other window ops reach the episode through program order *)
    List.iter
      (fun m -> List.iter (fun s -> if s != m then add_cov m s ~sync:true) e.e_pre)
      e.e_members;
    each decref t e.e_pre;
    e.e_pre <- [];
    (* last-preceding edges owed to ops that completed before the episode
       was fully assembled *)
    List.iter
      (fun w ->
        List.iter (fun m -> if m != w then add_cov w m ~sync:true) e.e_members;
        release_slot t w)
      e.e_waiters;
    e.e_waiters <- [];
    List.iter (fun m -> release_slot t m) e.e_members;
    maybe_release_episode t e
  end

(* ------------------------------------------------------------------ *)
(* Lock epochs                                                         *)
(* ------------------------------------------------------------------ *)

let lockstate t l =
  match Hashtbl.find_opt t.locks l with
  | Some ls -> ls
  | None ->
    let ls = { l_next = 0; l_buffer = Hashtbl.create 4; l_prev_srcs = []; l_cur = Idle } in
    Hashtbl.add t.locks l ls;
    ls

let lock_surface ls (n : 'a node) = each add_s n ls.l_prev_srcs

(* Close the bookkeeping of an epoch: every member held one machine
   reference; the surface sources carry theirs over as the new previous
   surface, the rest are dropped along with the old surface. *)
let set_prev_srcs t ls srcs members =
  List.iter (fun n -> if not (List.memq n srcs) then decref t n) members;
  each decref t ls.l_prev_srcs;
  ls.l_prev_srcs <- srcs

let close_epoch t ls =
  match ls.l_cur with
  | Idle -> ()
  | Write_open wl ->
    ls.l_cur <- Idle;
    set_prev_srcs t ls [ wl ] [ wl ]
  | Read_run rr ->
    ls.l_cur <- Idle;
    let members = List.rev rr.run_ops in
    let srcs = List.filter (fun n -> not (List.memq n rr.run_matched)) members in
    set_prev_srcs t ls srcs members

(* One grant-ordered step of the epoch state machine; mirrors
   [History.epochs_of_lock] walk-for-walk so the surface and intra-epoch
   edges match the offline covering exactly. *)
let rec lock_step t ls (n : 'a node) =
  let proc = n.n_op.Op.proc in
  match (ls.l_cur, n.n_op.Op.kind) with
  | Write_open wl, Op.Write_unlock _ when wl.n_op.Op.proc = proc ->
    incref n;
    add_cov n wl ~sync:true;
    ls.l_cur <- Idle;
    set_prev_srcs t ls [ n ] [ wl; n ]
  | Write_open _, _ ->
    close_epoch t ls;
    lock_step t ls n
  | Read_run _, Op.Write_lock _ ->
    close_epoch t ls;
    lock_step t ls n
  | Idle, Op.Write_lock _ ->
    incref n;
    lock_surface ls n;
    ls.l_cur <- Write_open n
  | (Idle | Read_run _), Op.Write_unlock _ ->
    (* stray unlock: skipped by the offline epoch walk as well *)
    ()
  | Idle, (Op.Read_lock _ | Op.Read_unlock _) ->
    incref n;
    lock_surface ls n;
    let rr = { run_ops = [ n ]; run_open = Hashtbl.create 4; run_matched = [] } in
    (match n.n_op.Op.kind with
    | Op.Read_lock _ -> Hashtbl.replace rr.run_open proc n
    | _ -> ());
    ls.l_cur <- Read_run rr
  | Read_run rr, Op.Read_lock _ ->
    incref n;
    rr.run_ops <- n :: rr.run_ops;
    lock_surface ls n;
    Hashtbl.replace rr.run_open proc n
  | Read_run rr, Op.Read_unlock _ ->
    incref n;
    rr.run_ops <- n :: rr.run_ops;
    (match Hashtbl.find_opt rr.run_open proc with
    | Some rl ->
      add_cov n rl ~sync:true;
      rr.run_matched <- rl :: rr.run_matched;
      Hashtbl.remove rr.run_open proc
    | None -> lock_surface ls n)
  | ( _,
      ( Op.Read _ | Op.Write _ | Op.Decrement _ | Op.Barrier _
      | Op.Barrier_group _ | Op.Await _ ) ) ->
    assert false

let rec drain_lock_buffer t ls =
  match Hashtbl.find_opt ls.l_buffer ls.l_next with
  | Some n ->
    Hashtbl.remove ls.l_buffer ls.l_next;
    ls.l_next <- ls.l_next + 1;
    lock_step t ls n;
    release_slot t n;
    drain_lock_buffer t ls
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Values                                                              *)
(* ------------------------------------------------------------------ *)

let values_of t loc =
  match Locs.find t.values loc with
  | vals -> vals
  | exception Not_found ->
    let vals = Vals.create 4 in
    Locs.add t.values loc vals;
    vals

let vstate vals loc v =
  match Vals.find vals v with
  | vs -> vs
  | exception Not_found ->
    let vs = new_vstate vals loc v in
    Vals.add vals v vs;
    vs

(* ------------------------------------------------------------------ *)
(* Event handlers                                                      *)
(* ------------------------------------------------------------------ *)

let rec first_idle = function
  | c :: rest -> if c.c_busy then first_idle rest else c
  | [] -> raise Not_found

let rec other_tails t chain = function
  | [] -> []
  | c :: rest ->
    if c == chain || c.c_last == t.none then other_tails t chain rest
    else begin
      incref c.c_last;
      c.c_last :: other_tails t chain rest
    end

let handle_inv t ~proc ~seq =
  if proc < 0 || proc >= t.n_procs then
    invalid_arg (Printf.sprintf "Stream: process %d out of range" proc);
  let ps = t.pstates.(proc) in
  let chain =
    match first_idle ps.p_chains with
    | c -> c
    | exception Not_found ->
      let c = { c_gid = t.n_chains; c_busy = false; c_count = 0; c_last = t.none; c_lp_mark = None;
                c_inv = -1; c_others = []; c_lp = None } in
      t.n_chains <- t.n_chains + 1;
      ps.p_chains <- ps.p_chains @ [ c ];
      c
  in
  chain.c_busy <- true;
  chain.c_inv <- seq;
  chain.c_others <- other_tails t chain ps.p_chains;
  chain.c_lp <-
    (match ps.p_last_episode with
    | Some e ->
      let marked = match chain.c_lp_mark with Some e' -> e' == e | None -> false in
      if marked then None
      else begin
        chain.c_lp_mark <- ps.p_last_episode;
        episode_hold e;
        ps.p_last_episode
      end
    | None -> None)

let rec open_chain seq = function
  | c :: rest -> if c.c_busy && c.c_inv = seq then c else open_chain seq rest
  | [] -> invalid_arg "Stream: response without matching invocation"

(* a first-following source of [e]: a chain tail completed after the
   process's latest barrier invocation *)
let add_pre ps e s =
  if s.n_op.Op.resp_seq > ps.p_last_barrier_inv && not (List.memq s e.e_pre) then begin
    incref s;
    e.e_pre <- s :: e.e_pre
  end

(* the op reads [vs]'s value: link it to the value's writers, or park it *)
let reads_from (n : 'a node) vs =
  vs.v_pending <- vs.v_pending + 1;
  match vs.v_writers with
  | _ :: _ as ws -> each add_rf n ws
  | [] ->
    if vs.v_value <> 0 then begin
      vs.v_parked <- n :: vs.v_parked;
      n.n_waits <- n.n_waits + 1
    end

(* a parked reader's park slot becomes its dependency wait on [n] *)
let unpark n r =
  if r == n then n.n_waits <- n.n_waits - 1
  else begin
    r.n_in <- RF n :: r.n_in;
    n.n_deps <- r :: n.n_deps
  end

(* the op writes [vs]'s value: register it and release the parked reads *)
let writes (n : 'a node) vs =
  vs.v_writers <- n :: vs.v_writers;
  each unpark n vs.v_parked;
  vs.v_parked <- []

(* handle a response; returns the operation's node *)
let add_op t (op : Op.t) =
  let ps = t.pstates.(op.proc) in
  let chain = open_chain op.inv_seq ps.p_chains in
  let prev = chain.c_last and others = chain.c_others and lp = chain.c_lp in
  let n =
    { n_op = op; n_chain = chain.c_gid; n_rank = chain.c_count; n_read = t.no_value; n_in = [];
      n_waits = 0; n_deps = []; n_state = None; n_refs = 0; n_next = t.none } in
  (* one location lookup: the value read, and the one written *)
  let written =
    match op.kind with
    | Op.Read { loc; value; _ } | Op.Await { loc; value } ->
      n.n_read <- vstate (values_of t loc) loc value;
      t.no_value
    | Op.Write { loc; value } -> vstate (values_of t loc) loc value
    | Op.Decrement { loc; amount; observed } ->
      let vals = values_of t loc in
      n.n_read <- vstate vals loc observed;
      vstate vals loc (observed - amount)
    | Op.Read_lock _ | Op.Read_unlock _ | Op.Write_lock _ | Op.Write_unlock _
    | Op.Barrier _ | Op.Barrier_group _ ->
      t.no_value
  in
  t.ops_seen <- t.ops_seen + 1;
  t.n_resident <- t.n_resident + 1;
  if t.n_resident > t.max_resident then t.max_resident <- t.n_resident;
  (* program-order chain covering *)
  if prev != t.none then add_cov n prev ~sync:false;
  each add_u n others;
  chain.c_count <- chain.c_count + 1;
  incref n;
  (* chain-tail hold *)
  if prev != t.none then decref t prev;
  chain.c_last <- n;
  chain.c_busy <- false;
  chain.c_others <- [];
  chain.c_lp <- None;
  (* barrier membership *)
  let close_after = ref None in
  (match Op.barrier_episode op with
  | Some ((members, _) as key) ->
    let expected =
      match op.kind with Op.Barrier_group _ -> List.length members | _ -> t.n_procs
    in
    let e = find_episode t key expected in
    if not e.e_closed then begin
      e.e_members <- n :: e.e_members;
      incref n;
      (* membership hold *)
      n.n_waits <- n.n_waits + 1;
      (* episode slot *)
      if prev != t.none then add_pre ps e prev;
      List.iter (add_pre ps e) others;
      if List.length e.e_members >= e.e_expected then close_after := Some e
    end;
    ps.p_last_barrier_inv <- max ps.p_last_barrier_inv op.inv_seq;
    (match ps.p_last_episode with
    | Some old when old == e -> ()
    | old ->
      episode_hold e;
      ps.p_last_episode <- Some e;
      (match old with Some o -> episode_unhold t o | None -> ()))
  | None -> ());
  (* release the invocation snapshot *)
  each decref t others;
  (* last-preceding episode edges (first op per chain after the episode) *)
  (match lp with
  | Some e ->
    if e.e_closed then
      List.iter (fun m -> if m != n then add_cov n m ~sync:true) e.e_members
    else begin
      e.e_waiters <- n :: e.e_waiters;
      n.n_waits <- n.n_waits + 1
    end;
    episode_unhold t e
  | None -> ());
  (* reads-from, then writer registration and parked-read release *)
  if n.n_read != t.no_value then reads_from n n.n_read;
  if written != t.no_value then writes n written;
  (* lock grant ordering *)
  (match Op.lock_of op with
  | Some l ->
    let ls = lockstate t l in
    n.n_waits <- n.n_waits + 1;
    (* machine slot *)
    if op.sync_seq = ls.l_next then begin
      ls.l_next <- ls.l_next + 1;
      lock_step t ls n;
      release_slot t n;
      drain_lock_buffer t ls
    end
    else Hashtbl.replace ls.l_buffer op.sync_seq n
  | None -> ());
  (match !close_after with Some e -> close_episode t e | None -> ());
  enqueue_if_ready t n;
  n

let handle_op t op = ignore (add_op t op)

let handle_dead t ~loc ~value =
  let vs = vstate (values_of t loc) loc value in
  vs.v_dead <- true;
  if vs.v_pending <= 0 then send_dead t vs

let handle_close t =
  if not t.closed then begin
    t.closed <- true;
    (* flush lock reorder buffers in grant order, then close open epochs *)
    Hashtbl.iter
      (fun _ ls ->
        let rest = Hashtbl.fold (fun seq n acc -> (seq, n) :: acc) ls.l_buffer [] in
        Hashtbl.reset ls.l_buffer;
        List.iter
          (fun (_, n) ->
            lock_step t ls n;
            release_slot t n)
          (List.sort (fun (a, _) (b, _) -> compare a b) rest);
        close_epoch t ls;
        each decref t ls.l_prev_srcs;
        ls.l_prev_srcs <- [])
      t.locks;
    (* close still-open episodes (missing participants) *)
    let open_eps =
      Hashtbl.fold
        (fun key e acc -> if e.e_closed then acc else (key, e) :: acc)
        t.episodes []
    in
    List.iter
      (fun (_, e) -> close_episode t e)
      (List.sort (fun (a, _) (b, _) -> compare a b) open_eps);
    (* release reads parked on writers that never happened, then deliver
       the stability notifications that were waiting on readers *)
    let each f = Locs.iter (fun _ vals -> Vals.iter (fun _ vs -> f vs) vals) t.values in
    let parked = ref [] in
    each (fun vs ->
        parked := List.rev_append vs.v_parked !parked;
        vs.v_parked <- []);
    List.iter (release_slot t) !parked;
    drain t;
    if t.n_finalized <> t.ops_seen then invalid_arg "Stream: cyclic causality relation";
    let dead = ref [] in
    each (fun vs -> if vs.v_dead && not vs.v_dead_sent then dead := vs :: !dead);
    List.iter (send_dead t) !dead;
    t.cb.on_end ()
  end

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let sink t =
  Sink.make
    ~on_inv:(fun ~proc ~seq -> handle_inv t ~proc ~seq)
    ~on_dead:(fun ~loc ~value -> handle_dead t ~loc ~value)
    ~on_close:(fun () -> handle_close t)
    (fun op -> handle_op t op)

(* [loc]'s value [v] is dead once one more reader has finalized *)
let pend_reader t loc v =
  let vs = vstate (values_of t loc) loc v in
  vs.v_dead <- true;
  vs.v_pending <- vs.v_pending + 1

(* A replay knows every reader of a value — a read, an await, or a
   decrement's observed value — before it starts, so it announces every
   value read dead up front, with all its readers pending: the notice
   lands once the last of them has finalized. *)
let pend_readers t ops =
  Array.iter
    (fun (o : Op.t) ->
      match o.Op.kind with
      | Op.Read { loc; value; _ } | Op.Await { loc; value } -> pend_reader t loc value
      | Op.Decrement { loc; observed; _ } -> pend_reader t loc observed
      | Op.Write _ | Op.Read_lock _ | Op.Read_unlock _ | Op.Write_lock _ | Op.Write_unlock _
      | Op.Barrier _ | Op.Barrier_group _ ->
        ())
    ops

(* Replay: invocation events go in process-local order; responses are
   additionally gated on global id (completion) order, which every
   recorder-produced history satisfies. Event [2k] is the invocation and
   [2k + 1] the response of [ops.(k)]; a recorded history lists each
   process's events in seq order already. A replay holds the whole
   history, so it stands in for the runtime's stability sweeps (see
   [pend_readers]). *)
let replay t h =
  let procs = History.procs h and ops = History.ops h in
  if procs > t.n_procs then
    invalid_arg "Stream.replay: history has more processes than the engine";
  pend_readers t ops;
  let seq e = if e land 1 = 0 then ops.(e / 2).Op.inv_seq else ops.(e / 2).Op.resp_seq in
  let evs = Array.make procs [] in
  for k = Array.length ops - 1 downto 0 do
    let p = ops.(k).Op.proc in
    evs.(p) <- (2 * k) :: ((2 * k) + 1) :: evs.(p)
  done;
  let rec sorted a i = i >= Array.length a || (seq a.(i - 1) <= seq a.(i) && sorted a (i + 1)) in
  let evs =
    Array.map
      (fun l ->
        let a = Array.of_list l in
        if not (sorted a 1) then Array.stable_sort (fun x y -> compare (seq x) (seq y)) a;
        a)
      evs
  in
  let pos = Array.make procs 0 and next_id = ref 0 and progress = ref true in
  while !progress do
    progress := false;
    for p = 0 to procs - 1 do
      let rec go () =
        if pos.(p) < Array.length evs.(p) then begin
          let e = evs.(p).(pos.(p)) in
          let o = ops.(e / 2) in
          let step =
            if e land 1 = 0 then (handle_inv t ~proc:p ~seq:o.inv_seq; true)
            else if o.id = !next_id then begin
              let vs = (add_op t o).n_read in
              (* the reader was pending already: [reads_from] counted it again *)
              if vs != t.no_value then begin
                vs.v_pending <- vs.v_pending - 1;
                if vs.v_pending <= 0 then send_dead t vs
              end;
              incr next_id;
              true
            end
            else false
          in
          if step then begin
            pos.(p) <- pos.(p) + 1;
            progress := true;
            go ()
          end
        end
      in
      go ()
    done
  done;
  if Array.exists2 (fun i a -> i < Array.length a) pos evs then
    invalid_arg "Stream.replay: inconsistent event sequencing";
  handle_close t

let feed_history ~callbacks h =
  let t = create ~procs:(History.procs h) callbacks in
  replay t h;
  t

(* One pass over the history, checking the restrictions of the header
   in id order. A process's barriers complete in id order, so they
   overlap iff one is invoked before its predecessor's response. The
   grant numbers of a lock must be distinct and non-negative, or the
   lock reorder buffer would not replay the offline grant order. The
   answer is memoized on the history. *)
let check_restrictions h =
  let written = Locs.create 16 in
  let episodes = Hashtbl.create 8 and grants = Hashtbl.create 8 in
  let barrier_resp = Array.make (History.procs h) (-1) in
  let fresh loc v =
    let vals =
      match Locs.find written loc with
      | vals -> vals
      | exception Not_found ->
        let vals = Vals.create 4 in
        Locs.add written loc vals;
        vals
    in
    v <> 0 && (not (Vals.mem vals v)) && (Vals.add vals v (); true)
  in
  let once tbl key = (not (Hashtbl.mem tbl key)) && (Hashtbl.add tbl key (); true) in
  let ok (o : Op.t) =
    match o.kind with
    | Op.Write { loc; value } -> fresh loc value
    | Op.Decrement { loc; amount; observed } -> fresh loc (observed - amount)
    | Op.Read _ | Op.Await _ -> true
    | Op.Read_lock l | Op.Read_unlock l | Op.Write_lock l | Op.Write_unlock l ->
      o.sync_seq >= 0 && once grants (l, o.sync_seq)
    | Op.Barrier _ | Op.Barrier_group _ ->
      o.inv_seq > barrier_resp.(o.proc)
      && (barrier_resp.(o.proc) <- o.resp_seq;
          once episodes (o.proc, Op.barrier_episode o))
  in
  Array.for_all ok (History.ops h)

let meets_restrictions h = History.memo_restrictions h check_restrictions
