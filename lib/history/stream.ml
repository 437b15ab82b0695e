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
   - [RF] edges: reads-from, resolved through a per-(location, value)
     writer registry; a read of a not-yet-written value parks until its
     writer completes (or until close, when no writer exists).

   Since every per-reader family relation is the closure of a subgraph of
   this covering, one finalization order serves every family: a checker
   can fold per-family clocks in a single pass over [on_finalize].

   Memory is bounded by the in-flight window: a finalized node is
   retired — removed from the engine and announced via [on_retire] — as
   soon as its reference count drops to zero.  References are held by
   (a) the chain tail (released when a later op completes on the chain),
   (b) pending covering in-edges (released when the dependent finalizes),
   (c) invocation snapshots (released when the invoking op completes),
   (d) episode pre-sources and members (released when the episode closes
   resp. stops being any process's latest episode), and
   (e) the lock machine's current-epoch members and surface sources
   (released as epochs close and are superseded).

   Restrictions (see DESIGN.md): values are written at most once per
   location, the initial value 0 is never written, barrier indices are
   not reused across rounds, and per-process barriers do not overlap.
   Histories violating these are still processed, but the streaming
   verdicts may diverge from the offline checker. *)

type edge = U of int | S of int | RF of int

type info = { op : Op.t; chain : int; rank : int; in_edges : edge list }

type callbacks = {
  on_finalize : info -> unit;
  on_retire : int -> unit;
  on_dead_value : loc:Op.location -> value:Op.value -> unit;
  on_end : unit -> unit;
}

type episode = {
  e_expected : int;
  mutable e_members : int list;
  mutable e_pre : int list; (* first-following sources, ref-held *)
  mutable e_waiters : int list; (* ops awaiting last-preceding edges *)
  mutable e_closed : bool;
  mutable e_holds : int; (* latest-episode + invocation holds *)
  mutable e_released : bool;
}

type chain = {
  c_gid : int;
  mutable c_busy : bool;
  mutable c_count : int;
  mutable c_last : int; (* last completed op id on this chain, -1 none *)
  mutable c_last_resp : int;
  mutable c_lp_mark : episode option;
}

type inv_info = {
  i_chain : chain;
  i_srcs : (int * int) list; (* (id, resp_seq) last completed per chain *)
  i_lp : episode option; (* episode owed last-preceding edges, held *)
}

type pstate = {
  mutable p_chains : chain list; (* creation order: first-fit target *)
  p_open : (int, inv_info) Hashtbl.t; (* inv_seq -> pending invocation *)
  mutable p_last_barrier_inv : int;
  mutable p_last_episode : episode option;
}

type node = {
  n_op : Op.t;
  n_chain : int;
  n_rank : int;
  mutable n_in : edge list;
  mutable n_waits : int;
  mutable n_deps : int list;
  mutable n_final : bool;
  mutable n_refs : int;
}

type read_run = {
  mutable run_ops : int list; (* reverse grant order *)
  run_open : (int, int) Hashtbl.t; (* proc -> open read lock id *)
  mutable run_matched : int list; (* read locks with an intra successor *)
}

type epoch_state = Idle | Write_open of int | Read_run of read_run

type lockstate = {
  mutable l_next : int; (* next expected grant number *)
  l_buffer : (int, int) Hashtbl.t; (* out-of-order grants *)
  mutable l_prev_srcs : int list; (* surface sources, ref-held *)
  mutable l_cur : epoch_state;
}

type vstate = {
  mutable v_writers : int list;
  mutable v_parked : int list; (* completed readers awaiting the writer *)
  mutable v_pending : int; (* completed, not yet finalized readers *)
  mutable v_dead : bool;
  mutable v_dead_sent : bool;
}

type t = {
  cb : callbacks;
  n_procs : int;
  nodes : (int, node) Hashtbl.t;
  pstates : pstate array;
  mutable n_chains : int;
  episodes : (int list * int, episode) Hashtbl.t;
  locks : (string, lockstate) Hashtbl.t;
  values : (Op.location * Op.value, vstate) Hashtbl.t;
  queue : int Queue.t;
  mutable draining : bool;
  mutable ops_seen : int;
  mutable n_finalized : int;
  mutable max_resident : int;
  mutable closed : bool;
}

let create ~procs cb =
  if procs <= 0 then invalid_arg "Stream.create: need at least one process";
  {
    cb;
    n_procs = procs;
    nodes = Hashtbl.create 256;
    pstates =
      Array.init procs (fun _ ->
          {
            p_chains = [];
            p_open = Hashtbl.create 4;
            p_last_barrier_inv = -1;
            p_last_episode = None;
          });
    n_chains = 0;
    episodes = Hashtbl.create 8;
    locks = Hashtbl.create 8;
    values = Hashtbl.create 64;
    queue = Queue.create ();
    draining = false;
    ops_seen = 0;
    n_finalized = 0;
    max_resident = 0;
    closed = false;
  }

let procs t = t.n_procs
let chains t = t.n_chains
let ops_seen t = t.ops_seen
let finalized t = t.n_finalized
let resident t = Hashtbl.length t.nodes
let max_resident t = t.max_resident

let node t id =
  match Hashtbl.find_opt t.nodes id with
  | Some n -> n
  | None -> invalid_arg (Printf.sprintf "Stream: unknown operation %d" id)

(* ------------------------------------------------------------------ *)
(* Retirement refcounting                                              *)
(* ------------------------------------------------------------------ *)

let maybe_retire t id =
  match Hashtbl.find_opt t.nodes id with
  | Some n when n.n_final && n.n_refs = 0 ->
    Hashtbl.remove t.nodes id;
    t.cb.on_retire id
  | _ -> ()

let incref t id =
  let n = node t id in
  n.n_refs <- n.n_refs + 1

let decref t id =
  let n = node t id in
  n.n_refs <- n.n_refs - 1;
  if n.n_refs = 0 then maybe_retire t id

(* ------------------------------------------------------------------ *)
(* Edges and finalization                                              *)
(* ------------------------------------------------------------------ *)

(* Covering (U/S) edge: the source must stay resident until the dependent
   finalizes, so the checker can join its clocks. *)
let add_cov t (n : node) src ~sync =
  n.n_in <- (if sync then S src else U src) :: n.n_in;
  incref t src;
  let s = node t src in
  if not s.n_final then begin
    s.n_deps <- n.n_op.Op.id :: s.n_deps;
    n.n_waits <- n.n_waits + 1
  end

(* Reads-from edge: no reference — the checker keeps per-value writer
   summaries alive independently of node residence. *)
let add_rf t (n : node) src =
  n.n_in <- RF src :: n.n_in;
  match Hashtbl.find_opt t.nodes src with
  | Some s when not s.n_final ->
    s.n_deps <- n.n_op.Op.id :: s.n_deps;
    n.n_waits <- n.n_waits + 1
  | _ -> ()

let send_dead t loc value vs =
  if not vs.v_dead_sent then begin
    vs.v_dead_sent <- true;
    Hashtbl.remove t.values (loc, value);
    t.cb.on_dead_value ~loc ~value
  end

let finalize t (n : node) =
  n.n_final <- true;
  t.n_finalized <- t.n_finalized + 1;
  t.cb.on_finalize
    { op = n.n_op; chain = n.n_chain; rank = n.n_rank; in_edges = n.n_in };
  List.iter (function U s | S s -> decref t s | RF _ -> ()) n.n_in;
  n.n_in <- [];
  (match Op.reads_value n.n_op with
  | Some (loc, v) -> (
    match Hashtbl.find_opt t.values (loc, v) with
    | Some vs ->
      vs.v_pending <- vs.v_pending - 1;
      if vs.v_dead && vs.v_pending <= 0 then send_dead t loc v vs
    | None -> ())
  | None -> ());
  List.iter
    (fun d ->
      let dn = node t d in
      dn.n_waits <- dn.n_waits - 1;
      if dn.n_waits = 0 && not dn.n_final then Queue.add d t.queue)
    n.n_deps;
  n.n_deps <- [];
  maybe_retire t n.n_op.Op.id

let drain t =
  if not t.draining then begin
    t.draining <- true;
    while not (Queue.is_empty t.queue) do
      let id = Queue.pop t.queue in
      let n = node t id in
      if not n.n_final then finalize t n
    done;
    t.draining <- false
  end

let enqueue_if_ready t (n : node) =
  if (not n.n_final) && n.n_waits = 0 then begin
    Queue.add n.n_op.Op.id t.queue;
    drain t
  end

let release_slot t id =
  let n = node t id in
  n.n_waits <- n.n_waits - 1;
  enqueue_if_ready t n

(* ------------------------------------------------------------------ *)
(* Barrier episodes                                                    *)
(* ------------------------------------------------------------------ *)

let find_episode t key expected =
  match Hashtbl.find_opt t.episodes key with
  | Some e -> e
  | None ->
    let e =
      {
        e_expected = expected;
        e_members = [];
        e_pre = [];
        e_waiters = [];
        e_closed = false;
        e_holds = 0;
        e_released = false;
      }
    in
    Hashtbl.add t.episodes key e;
    e

let maybe_release_episode t e =
  if e.e_closed && e.e_holds = 0 && not e.e_released then begin
    e.e_released <- true;
    List.iter (fun m -> decref t m) e.e_members
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
      (fun m ->
        let mn = node t m in
        List.iter (fun s -> if s <> m then add_cov t mn s ~sync:true) e.e_pre)
      e.e_members;
    List.iter (fun s -> decref t s) e.e_pre;
    e.e_pre <- [];
    (* last-preceding edges owed to ops that completed before the episode
       was fully assembled *)
    List.iter
      (fun w ->
        let wn = node t w in
        List.iter
          (fun m -> if m <> w then add_cov t wn m ~sync:true)
          e.e_members;
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
    let ls =
      {
        l_next = 0;
        l_buffer = Hashtbl.create 4;
        l_prev_srcs = [];
        l_cur = Idle;
      }
    in
    Hashtbl.add t.locks l ls;
    ls

let lock_surface t ls (n : node) =
  List.iter (fun s -> add_cov t n s ~sync:true) ls.l_prev_srcs

(* Close the bookkeeping of an epoch: every member held one machine
   reference; the surface sources carry theirs over as the new previous
   surface, the rest are dropped along with the old surface. *)
let set_prev_srcs t ls srcs members =
  List.iter (fun id -> if not (List.mem id srcs) then decref t id) members;
  List.iter (fun id -> decref t id) ls.l_prev_srcs;
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
    let srcs =
      List.filter (fun id -> not (List.mem id rr.run_matched)) members
    in
    set_prev_srcs t ls srcs members

(* One grant-ordered step of the epoch state machine; mirrors
   [History.epochs_of_lock] walk-for-walk so the surface and intra-epoch
   edges match the offline covering exactly. *)
let rec lock_step t ls (n : node) =
  let id = n.n_op.Op.id in
  match (ls.l_cur, n.n_op.Op.kind) with
  | Write_open wl, Op.Write_unlock _
    when (node t wl).n_op.Op.proc = n.n_op.Op.proc ->
    incref t id;
    add_cov t n wl ~sync:true;
    ls.l_cur <- Idle;
    set_prev_srcs t ls [ id ] [ wl; id ]
  | Write_open _, _ ->
    close_epoch t ls;
    lock_step t ls n
  | Read_run _, Op.Write_lock _ ->
    close_epoch t ls;
    lock_step t ls n
  | Idle, Op.Write_lock _ ->
    incref t id;
    lock_surface t ls n;
    ls.l_cur <- Write_open id
  | (Idle | Read_run _), Op.Write_unlock _ ->
    (* stray unlock: skipped by the offline epoch walk as well *)
    ()
  | Idle, (Op.Read_lock _ | Op.Read_unlock _) ->
    incref t id;
    lock_surface t ls n;
    let rr =
      { run_ops = [ id ]; run_open = Hashtbl.create 4; run_matched = [] }
    in
    (match n.n_op.Op.kind with
    | Op.Read_lock _ -> Hashtbl.replace rr.run_open n.n_op.Op.proc id
    | _ -> ());
    ls.l_cur <- Read_run rr
  | Read_run rr, Op.Read_lock _ ->
    incref t id;
    rr.run_ops <- id :: rr.run_ops;
    lock_surface t ls n;
    Hashtbl.replace rr.run_open n.n_op.Op.proc id
  | Read_run rr, Op.Read_unlock _ ->
    incref t id;
    rr.run_ops <- id :: rr.run_ops;
    (match Hashtbl.find_opt rr.run_open n.n_op.Op.proc with
    | Some rl ->
      add_cov t n rl ~sync:true;
      rr.run_matched <- rl :: rr.run_matched;
      Hashtbl.remove rr.run_open n.n_op.Op.proc
    | None -> lock_surface t ls n)
  | ( _,
      ( Op.Read _ | Op.Write _ | Op.Decrement _ | Op.Barrier _
      | Op.Barrier_group _ | Op.Await _ ) ) ->
    assert false

let rec drain_lock_buffer t ls =
  match Hashtbl.find_opt ls.l_buffer ls.l_next with
  | Some id ->
    Hashtbl.remove ls.l_buffer ls.l_next;
    ls.l_next <- ls.l_next + 1;
    lock_step t ls (node t id);
    release_slot t id;
    drain_lock_buffer t ls
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Values                                                              *)
(* ------------------------------------------------------------------ *)

let vstate t loc v =
  let key = (loc, v) in
  match Hashtbl.find_opt t.values key with
  | Some vs -> vs
  | None ->
    let vs =
      {
        v_writers = [];
        v_parked = [];
        v_pending = 0;
        v_dead = false;
        v_dead_sent = false;
      }
    in
    Hashtbl.add t.values key vs;
    vs

(* ------------------------------------------------------------------ *)
(* Event handlers                                                      *)
(* ------------------------------------------------------------------ *)

let handle_inv t ~proc ~seq =
  if proc < 0 || proc >= t.n_procs then
    invalid_arg (Printf.sprintf "Stream: process %d out of range" proc);
  let ps = t.pstates.(proc) in
  let chain =
    match List.find_opt (fun c -> not c.c_busy) ps.p_chains with
    | Some c -> c
    | None ->
      let c =
        {
          c_gid = t.n_chains;
          c_busy = false;
          c_count = 0;
          c_last = -1;
          c_last_resp = -1;
          c_lp_mark = None;
        }
      in
      t.n_chains <- t.n_chains + 1;
      ps.p_chains <- ps.p_chains @ [ c ];
      c
  in
  chain.c_busy <- true;
  let srcs =
    List.filter_map
      (fun c -> if c.c_last >= 0 then Some (c.c_last, c.c_last_resp) else None)
      ps.p_chains
  in
  List.iter (fun (s, _) -> incref t s) srcs;
  let lp =
    match ps.p_last_episode with
    | Some e ->
      let marked =
        match chain.c_lp_mark with Some e' -> e' == e | None -> false
      in
      if marked then None
      else begin
        chain.c_lp_mark <- Some e;
        episode_hold e;
        Some e
      end
    | None -> None
  in
  Hashtbl.replace ps.p_open seq { i_chain = chain; i_srcs = srcs; i_lp = lp }

let handle_op t (op : Op.t) =
  let ps = t.pstates.(op.proc) in
  let ii =
    match Hashtbl.find_opt ps.p_open op.inv_seq with
    | Some ii ->
      Hashtbl.remove ps.p_open op.inv_seq;
      ii
    | None -> invalid_arg "Stream: response without matching invocation"
  in
  let chain = ii.i_chain in
  let n =
    {
      n_op = op;
      n_chain = chain.c_gid;
      n_rank = chain.c_count;
      n_in = [];
      n_waits = 0;
      n_deps = [];
      n_final = false;
      n_refs = 0;
    }
  in
  Hashtbl.add t.nodes op.id n;
  t.ops_seen <- t.ops_seen + 1;
  let r = Hashtbl.length t.nodes in
  if r > t.max_resident then t.max_resident <- r;
  (* program-order chain covering *)
  List.iter (fun (s, _) -> add_cov t n s ~sync:false) ii.i_srcs;
  chain.c_count <- chain.c_count + 1;
  incref t op.id;
  (* chain-tail hold *)
  if chain.c_last >= 0 then decref t chain.c_last;
  chain.c_last <- op.id;
  chain.c_last_resp <- op.resp_seq;
  chain.c_busy <- false;
  (* barrier membership *)
  let close_after = ref None in
  (match Op.barrier_episode op with
  | Some ((members, _) as key) ->
    let expected =
      match op.kind with Op.Barrier_group _ -> List.length members | _ -> t.n_procs
    in
    let e = find_episode t key expected in
    if not e.e_closed then begin
      e.e_members <- op.id :: e.e_members;
      incref t op.id;
      (* membership hold *)
      n.n_waits <- n.n_waits + 1;
      (* episode slot *)
      List.iter
        (fun (s, resp) ->
          if resp > ps.p_last_barrier_inv && not (List.mem s e.e_pre) then begin
            incref t s;
            e.e_pre <- s :: e.e_pre
          end)
        ii.i_srcs;
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
  List.iter (fun (s, _) -> decref t s) ii.i_srcs;
  (* last-preceding episode edges (first op per chain after the episode) *)
  (match ii.i_lp with
  | Some e ->
    if e.e_closed then
      List.iter
        (fun m -> if m <> op.id then add_cov t n m ~sync:true)
        e.e_members
    else begin
      e.e_waiters <- op.id :: e.e_waiters;
      n.n_waits <- n.n_waits + 1
    end;
    episode_unhold t e
  | None -> ());
  (* reads-from *)
  (match Op.reads_value op with
  | Some (loc, v) ->
    let vs = vstate t loc v in
    vs.v_pending <- vs.v_pending + 1;
    if vs.v_writers <> [] then
      List.iter (fun w -> if w <> op.id then add_rf t n w) vs.v_writers
    else if v <> 0 then begin
      vs.v_parked <- op.id :: vs.v_parked;
      n.n_waits <- n.n_waits + 1
    end
  | None -> ());
  (* writer registration and parked-read release *)
  (match Op.writes_value op with
  | Some (loc, v) ->
    let vs = vstate t loc v in
    vs.v_writers <- op.id :: vs.v_writers;
    List.iter
      (fun rid ->
        if rid = op.id then n.n_waits <- n.n_waits - 1
        else begin
          let rn = node t rid in
          (* the park slot becomes the dependency wait on this writer *)
          rn.n_in <- RF op.id :: rn.n_in;
          n.n_deps <- rid :: n.n_deps
        end)
      vs.v_parked;
    vs.v_parked <- []
  | None -> ());
  (* lock grant ordering *)
  (match Op.lock_of op with
  | Some l ->
    let ls = lockstate t l in
    n.n_waits <- n.n_waits + 1;
    (* machine slot *)
    if op.sync_seq = ls.l_next then begin
      ls.l_next <- ls.l_next + 1;
      lock_step t ls n;
      release_slot t op.id;
      drain_lock_buffer t ls
    end
    else Hashtbl.replace ls.l_buffer op.sync_seq op.id
  | None -> ());
  (match !close_after with Some e -> close_episode t e | None -> ());
  enqueue_if_ready t n

let handle_dead t ~loc ~value =
  let vs = vstate t loc value in
  vs.v_dead <- true;
  if vs.v_pending <= 0 then send_dead t loc value vs

let handle_close t =
  if not t.closed then begin
    t.closed <- true;
    (* flush lock reorder buffers in grant order, then close open epochs *)
    Hashtbl.iter
      (fun _ ls ->
        let rest =
          Hashtbl.fold (fun seq id acc -> (seq, id) :: acc) ls.l_buffer []
        in
        Hashtbl.reset ls.l_buffer;
        List.iter
          (fun (_, id) ->
            lock_step t ls (node t id);
            release_slot t id)
          (List.sort compare rest);
        close_epoch t ls;
        List.iter (fun s -> decref t s) ls.l_prev_srcs;
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
    (* release reads parked on writers that never happened *)
    Hashtbl.iter
      (fun _ vs ->
        let parked = vs.v_parked in
        vs.v_parked <- [];
        List.iter (fun rid -> release_slot t rid) parked)
      t.values;
    drain t;
    if t.n_finalized <> t.ops_seen then
      invalid_arg "Stream: cyclic causality relation";
    (* deliver stability notifications that were waiting on readers *)
    let dead =
      Hashtbl.fold
        (fun (loc, v) vs acc ->
          if vs.v_dead && not vs.v_dead_sent then (loc, v, vs) :: acc else acc)
        t.values []
    in
    List.iter (fun (loc, v, vs) -> send_dead t loc v vs) dead;
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

let replay t h =
  if History.procs h > t.n_procs then
    invalid_arg "Stream.replay: history has more processes than the engine";
  let evs = Array.make (History.procs h) [] in
  Array.iter
    (fun (o : Op.t) ->
      evs.(o.proc) <-
        (o.inv_seq, `Inv o) :: (o.resp_seq, `Resp o) :: evs.(o.proc))
    (History.ops h);
  let evs =
    Array.map
      (fun l -> ref (List.sort (fun (a, _) (b, _) -> compare a b) l))
      evs
  in
  (* Replay: invocation events go in process-local order; responses are
     additionally gated on global id (completion) order, which every
     recorder-produced history satisfies. *)
  let next_id = ref 0 in
  let progress = ref true in
  while !progress do
    progress := false;
    Array.iter
      (fun cell ->
        let continue_ = ref true in
        while !continue_ do
          match !cell with
          | (seq, `Inv (o : Op.t)) :: rest ->
            handle_inv t ~proc:o.proc ~seq;
            cell := rest;
            progress := true
          | (_, `Resp (o : Op.t)) :: rest when o.id = !next_id ->
            handle_op t o;
            incr next_id;
            cell := rest;
            progress := true
          | _ -> continue_ := false
        done)
      evs
  done;
  if Array.exists (fun c -> !c <> []) evs then
    invalid_arg "Stream.replay: inconsistent event sequencing";
  handle_close t

let feed_history ~callbacks h =
  let t = create ~procs:(History.procs h) callbacks in
  replay t h;
  t
