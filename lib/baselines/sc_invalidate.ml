module Engine = Mc_sim.Engine
module Op = Mc_history.Op

type msg =
  | Read_req of { proc : int; loc : Op.location }
  | Read_data of { loc : Op.location; numeric : int; tag : int }
  | Write_req of { proc : int; loc : Op.location }
  | Write_grant of { loc : Op.location; numeric : int; tag : int }
  | Inv_req of { loc : Op.location }
  | Inv_ack of { proc : int; loc : Op.location }
  | Fetch_req of { loc : Op.location; downgrade : bool }
  | Fetch_reply of { proc : int; loc : Op.location; numeric : int; tag : int }

let kind = function
  | Read_req _ -> "read_req"
  | Read_data _ -> "read_data"
  | Write_req _ -> "write_req"
  | Write_grant _ -> "write_grant"
  | Inv_req _ -> "inv_req"
  | Inv_ack _ -> "inv_ack"
  | Fetch_req _ -> "fetch_req"
  | Fetch_reply _ -> "fetch_reply"

type cache_state = Modified | Shared

type cache_line = {
  mutable state : cache_state;
  mutable numeric : int;
  mutable tag : int;
}

(* A directory transaction in flight for one location. *)
type txn =
  | Read_txn of { requester : int }
  | Write_txn of { requester : int; mutable pending_acks : int }

type dir_entry = {
  mutable owner : int option;
  mutable sharers : int list;
  mutable mem_numeric : int;
  mutable mem_tag : int;
  mutable busy : txn option;
  mutable queue : txn list;
}

type t = {
  core : msg Sc_core.t;
  procs : int;
  directories : (Op.location, dir_entry) Hashtbl.t array; (* per home node *)
  caches : (Op.location, cache_line) Hashtbl.t array; (* per client *)
  mutable hits : int;
  mutable misses : int;
}

(* how long an await waits between two polls of its cached line *)
let poll_interval = 10.

let home t loc = Hashtbl.hash loc mod t.procs

let dir_entry t node loc =
  match Hashtbl.find_opt t.directories.(node) loc with
  | Some e -> e
  | None ->
    let e =
      {
        owner = None;
        sharers = [];
        mem_numeric = 0;
        mem_tag = 0;
        busy = None;
        queue = [];
      }
    in
    Hashtbl.add t.directories.(node) loc e;
    e

let send t ~src ~dst msg = Sc_core.send t.core ~src ~dst msg

(* ------------------------------------------------------------------ *)
(* Directory engine (runs at each location's home node)                *)
(* ------------------------------------------------------------------ *)

let rec start_txn t node loc e txn =
  match txn with
  | Read_txn { requester } -> (
    match e.owner with
    | Some o when o <> requester ->
      e.busy <- Some txn;
      send t ~src:node ~dst:o (Fetch_req { loc; downgrade = true })
    | Some _ | None ->
      (* serve directly from memory *)
      if not (List.mem requester e.sharers) then e.sharers <- requester :: e.sharers;
      send t ~src:node ~dst:requester
        (Read_data { loc; numeric = e.mem_numeric; tag = e.mem_tag }))
  | Write_txn w ->
    e.busy <- Some txn;
    let invalidations = ref 0 in
    (match e.owner with
    | Some o when o <> w.requester ->
      incr invalidations;
      send t ~src:node ~dst:o (Fetch_req { loc; downgrade = false })
    | Some _ | None -> ());
    List.iter
      (fun s ->
        if s <> w.requester then begin
          incr invalidations;
          send t ~src:node ~dst:s (Inv_req { loc })
        end)
      e.sharers;
    w.pending_acks <- !invalidations;
    if !invalidations = 0 then finish_write t node loc e w.requester

and finish_write t node loc e requester =
  e.owner <- Some requester;
  e.sharers <- [];
  e.busy <- None;
  send t ~src:node ~dst:requester
    (Write_grant { loc; numeric = e.mem_numeric; tag = e.mem_tag });
  next_txn t node loc e

and finish_read t node loc e requester =
  e.busy <- None;
  if not (List.mem requester e.sharers) then e.sharers <- requester :: e.sharers;
  send t ~src:node ~dst:requester
    (Read_data { loc; numeric = e.mem_numeric; tag = e.mem_tag });
  next_txn t node loc e

and next_txn t node loc e =
  match e.queue with
  | [] -> ()
  | txn :: rest ->
    e.queue <- rest;
    start_txn t node loc e txn

let submit_txn t node loc txn =
  let e = dir_entry t node loc in
  match e.busy with
  | Some _ -> e.queue <- e.queue @ [ txn ]
  | None -> start_txn t node loc e txn

let handle_fetch_reply t node ~loc ~proc ~numeric ~tag =
  let e = dir_entry t node loc in
  e.mem_numeric <- numeric;
  e.mem_tag <- tag;
  match e.busy with
  | Some (Read_txn { requester }) ->
    (* previous owner keeps a shared copy *)
    e.owner <- None;
    e.sharers <- [ proc ];
    finish_read t node loc e requester
  | Some (Write_txn w) ->
    e.owner <- None;
    w.pending_acks <- w.pending_acks - 1;
    if w.pending_acks = 0 then finish_write t node loc e w.requester
  | None -> invalid_arg "Sc_invalidate: fetch reply with no transaction"

let handle_inv_ack t node ~loc ~proc =
  let e = dir_entry t node loc in
  e.sharers <- List.filter (fun s -> s <> proc) e.sharers;
  match e.busy with
  | Some (Write_txn w) ->
    w.pending_acks <- w.pending_acks - 1;
    if w.pending_acks = 0 then finish_write t node loc e w.requester
  | Some (Read_txn _) | None ->
    invalid_arg "Sc_invalidate: invalidation ack with no write transaction"

(* ------------------------------------------------------------------ *)
(* Node message handler                                                *)
(* ------------------------------------------------------------------ *)

let handle_message t node msg =
  match msg with
  | Read_req { proc; loc } -> submit_txn t node loc (Read_txn { requester = proc })
  | Write_req { proc; loc } ->
    submit_txn t node loc (Write_txn { requester = proc; pending_acks = 0 })
  | Fetch_reply { proc; loc; numeric; tag } ->
    handle_fetch_reply t node ~loc ~proc ~numeric ~tag
  | Inv_ack { proc; loc } -> handle_inv_ack t node ~loc ~proc
  | Inv_req { loc } ->
    Hashtbl.remove t.caches.(node) loc;
    send t ~src:node ~dst:(home t loc) (Inv_ack { proc = node; loc })
  | Fetch_req { loc; downgrade } -> (
    match Hashtbl.find_opt t.caches.(node) loc with
    | Some line ->
      let reply =
        Fetch_reply { proc = node; loc; numeric = line.numeric; tag = line.tag }
      in
      if downgrade then line.state <- Shared
      else Hashtbl.remove t.caches.(node) loc;
      send t ~src:node ~dst:(home t loc) reply
    | None -> invalid_arg "Sc_invalidate: fetch for a line we do not hold")
  | Read_data { loc; numeric; tag } ->
    (* install the line inside the delivery handler, not in the resumed
       fiber: a Fetch_req or Inv_req delivered at the same instant must
       already see it (the home serializes them after this grant) *)
    Hashtbl.replace t.caches.(node) loc { state = Shared; numeric; tag };
    Sc_core.resume t.core node msg
  | Write_grant { loc; numeric; tag } ->
    Hashtbl.replace t.caches.(node) loc { state = Modified; numeric; tag };
    Sc_core.resume t.core node msg

let create engine ?(record = false) ~procs () =
  let core =
    Sc_core.create engine ~name:"Sc_invalidate" ~record ~procs ~server:false ~kind
  in
  let t =
    {
      core;
      procs;
      directories = Array.init procs (fun _ -> Hashtbl.create 32);
      caches = Array.init procs (fun _ -> Hashtbl.create 32);
      hits = 0;
      misses = 0;
    }
  in
  Sc_core.serve core (handle_message t);
  t

(* ------------------------------------------------------------------ *)
(* Client operations                                                   *)
(* ------------------------------------------------------------------ *)

let read_line t client loc =
  match Hashtbl.find_opt t.caches.(client) loc with
  | Some line ->
    t.hits <- t.hits + 1;
    (line.numeric, line.tag)
  | None -> (
    t.misses <- t.misses + 1;
    (* the delivery handler installed the line; the returned values are
       the linearized ones even if the line was invalidated again before
       this fiber resumed *)
    match Sc_core.call t.core client ~dst:(home t loc) (Read_req { proc = client; loc }) with
    | Read_data { numeric; tag; _ } -> (numeric, tag)
    | _ -> assert false)

(* obtain an exclusive (Modified) line, returning it for mutation. The
   grant installs the line in the delivery handler; if a concurrent
   transaction stole it again before this fiber resumed, retry - the
   standard cache-controller race resolution. *)
let rec exclusive_line t client loc =
  match Hashtbl.find_opt t.caches.(client) loc with
  | Some ({ state = Modified; _ } as line) -> line
  | Some _ | None -> (
    match
      Sc_core.call t.core client ~dst:(home t loc) (Write_req { proc = client; loc })
    with
    | Write_grant _ -> exclusive_line t client loc
    | _ -> assert false)

let memory t client : Sc_core.memory =
  {
    load = read_line t client;
    store =
      (fun loc ~numeric ~tag ->
        let line = exclusive_line t client loc in
        line.numeric <- numeric;
        line.tag <- tag);
    decrement =
      (fun loc ~amount ->
        let line = exclusive_line t client loc in
        let observed = line.numeric in
        line.numeric <- observed - amount;
        observed);
    await =
      (fun loc v ->
        (* poll through the cache: hits are local; an invalidation makes
           the next poll fetch fresh data *)
        let rec poll () =
          let numeric, tag = read_line t client loc in
          if numeric = v then (numeric, tag)
          else begin
            Engine.delay (Sc_core.engine t.core) poll_interval;
            poll ()
          end
        in
        poll ());
  }

let spawn t i f = Sc_core.spawn t.core ~fiber:"inv" i (memory t i) f
let run t = Sc_core.run t.core
let history t = Sc_core.history t.core

let peek t loc =
  let e = dir_entry t (home t loc) loc in
  match e.owner with
  | Some o -> (
    match Hashtbl.find_opt t.caches.(o) loc with
    | Some line -> line.numeric
    | None -> e.mem_numeric)
  | None -> e.mem_numeric

let messages_sent t = Sc_core.messages_sent t.core
let bytes_sent t = Sc_core.bytes_sent t.core
let wait_summaries t = Sc_core.wait_summaries t.core
let cache_hits t = t.hits
let cache_misses t = t.misses
