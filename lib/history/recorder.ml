type token = { proc : int; inv_seq : int }

(* The full-materialize store is itself a sink: the offline path is just
   one subscriber among the streaming consumers. *)
type store = { mutable ops_rev : Op.t list }

let store_sink store =
  Sink.make (fun op -> store.ops_rev <- op :: store.ops_rev)

type t = {
  n_procs : int;
  store : store option;
  mutable sinks : Sink.t list; (* in subscription order *)
  mutable count : int;
  mutable closed : bool;
  event_counters : int array;
  grant_counters : (string, int ref) Hashtbl.t;
}

let create ?(materialize = true) ~procs () =
  if procs <= 0 then invalid_arg "Recorder.create: need at least one process";
  let store = if materialize then Some { ops_rev = [] } else None in
  {
    n_procs = procs;
    store;
    sinks = (match store with Some s -> [ store_sink s ] | None -> []);
    count = 0;
    closed = false;
    event_counters = Array.make procs 0;
    grant_counters = Hashtbl.create 8;
  }

let procs t = t.n_procs

let subscribe t sink =
  if t.closed then invalid_arg "Recorder.subscribe: recorder is closed";
  t.sinks <- t.sinks @ [ sink ]

(* one direct walk per event kind: no closure per event *)
let rec emit_inv ~proc ~seq = function
  | [] -> ()
  | s :: rest ->
    s.Sink.on_inv ~proc ~seq;
    emit_inv ~proc ~seq rest

let rec emit_op op = function
  | [] -> ()
  | s :: rest ->
    s.Sink.on_op op;
    emit_op op rest

let check_proc t proc =
  if proc < 0 || proc >= t.n_procs then
    invalid_arg (Printf.sprintf "Recorder: process %d out of range" proc)

let check_open t =
  if t.closed then invalid_arg "Recorder: recorder is closed"

let next_event t proc =
  let c = t.event_counters.(proc) in
  t.event_counters.(proc) <- c + 1;
  c

let add_op t ~proc ~inv_seq ~resp_seq ~sync_seq kind =
  let id = t.count in
  t.count <- id + 1;
  let op : Op.t = { id; proc; kind; inv_seq; resp_seq; sync_seq } in
  emit_op op t.sinks;
  id

let record t ~proc ?(sync_seq = -1) kind =
  check_proc t proc;
  check_open t;
  let inv_seq = next_event t proc in
  emit_inv ~proc ~seq:inv_seq t.sinks;
  let resp_seq = next_event t proc in
  add_op t ~proc ~inv_seq ~resp_seq ~sync_seq kind

let start t ~proc =
  check_proc t proc;
  check_open t;
  let inv_seq = next_event t proc in
  emit_inv ~proc ~seq:inv_seq t.sinks;
  { proc; inv_seq }

let finish t token ?(sync_seq = -1) kind =
  check_open t;
  let resp_seq = next_event t token.proc in
  add_op t ~proc:token.proc ~inv_seq:token.inv_seq ~resp_seq ~sync_seq kind

let grant_seq t lock =
  match Hashtbl.find_opt t.grant_counters lock with
  | Some r ->
    incr r;
    !r
  | None ->
    Hashtbl.add t.grant_counters lock (ref 0);
    0

let notify_dead t ~loc ~value =
  check_open t;
  List.iter (fun s -> s.Sink.on_dead ~loc ~value) t.sinks

let close t =
  if not t.closed then begin
    t.closed <- true;
    List.iter (fun s -> s.Sink.on_close ()) t.sinks
  end

let history t =
  match t.store with
  | Some store ->
    let arr = Array.of_list (List.rev store.ops_rev) in
    History.create ~procs:t.n_procs arr
  | None ->
    invalid_arg "Recorder.history: recorder was created with ~materialize:false"
