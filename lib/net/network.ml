module Engine = Mc_sim.Engine

(* an all-float record is stored flat: the clamp is updated unboxed *)
type clamp = { mutable last : float (* the newest message in flight's time *) }

(* A link is one FIFO channel. Its messages in flight are the head,
   whose engine event ([fire]'s) is the link's only one, and behind it,
   in send order, a ring of the others, each with its clamped delivery
   time and the engine sequence number it reserved when sent. The
   ring's capacity is a power of two; it is allocated when a second
   message is in flight. A delivered message's slot is emptied, so the
   link keeps no message alive past its delivery. *)
type 'msg link = {
  src : int;
  dst : int;
  clamp : clamp;
  mutable paused : bool;
  mutable held : (int * string * 'msg) list; (* reversed: (bytes, kind, msg) *)
  mutable head : 'msg option; (* [None]: nothing in flight *)
  mutable msgs : 'msg option array;
  mutable times : float array;
  mutable seqs : int array;
  mutable first : int;
  mutable len : int; (* the ring's, the head not counted *)
  mutable fire : unit -> unit; (* delivers the head *)
}

(* links keyed by [src * nodes + dst]: the keys are dense, so the low
   bits are a good hash *)
module Links = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = k land max_int
end)

type obs = {
  reg : Mc_obs.Metrics.Registry.t;
  c_msgs : Mc_obs.Metrics.Counter.t;
  c_bytes : Mc_obs.Metrics.Counter.t;
  h_latency : Mc_obs.Metrics.Histogram.t;
}

(* a message kind's counters, resolved once per kind *)
type kind = {
  name : string;
  count : int ref; (* the cell behind [name] in [kinds] *)
  mutable metric : Mc_obs.Metrics.Counter.t option; (* once observed *)
}

type 'msg observer =
  src:int -> dst:int -> bytes:int -> kind:string -> seq:int -> sent:float ->
  recv:float -> 'msg -> unit

type 'msg t = {
  engine : Engine.t;
  n : int;
  latency : Latency.t;
  send_cost : float;
  byte_cost : float;
  send_free : float array; (* next time each node's sender is free *)
  handlers : (src:int -> 'msg -> unit) option array;
  links : 'msg link Links.t; (* created on first use *)
  mutable messages : int;
  mutable bytes : int;
  kinds : Mc_util.Stats.Counters.t;
  mutable kind_cache : kind list;
  mutable latencies : Mc_util.Stats.Summary.t;
  mutable obs : obs option;
  mutable observer : 'msg observer option;
}

let create engine ~nodes ~latency ?(send_cost = 0.) ?(byte_cost = 0.) () =
  if nodes <= 0 then invalid_arg "Network.create: need at least one node";
  if send_cost < 0. || byte_cost < 0. then
    invalid_arg "Network.create: negative cost";
  {
    engine;
    n = nodes;
    latency;
    send_cost;
    byte_cost;
    send_free = Array.make nodes 0.;
    handlers = Array.make nodes None;
    links = Links.create 64;
    messages = 0;
    bytes = 0;
    kinds = Mc_util.Stats.Counters.create ();
    kind_cache = [];
    latencies = Mc_util.Stats.Summary.create ();
    obs = None;
    observer = None;
  }

let attach_metrics t reg =
  let module M = Mc_obs.Metrics in
  List.iter (fun k -> k.metric <- None) t.kind_cache;
  t.obs <-
    Some
      {
        reg;
        c_msgs =
          M.Registry.counter reg ~help:"messages transmitted" "mc_net_messages_total";
        c_bytes = M.Registry.counter reg ~help:"bytes transmitted" "mc_net_bytes_total";
        h_latency =
          M.Registry.histogram reg ~help:"end-to-end message latency (us)"
            "mc_net_latency_us";
      }

let set_observer t f = t.observer <- Some f

let nodes t = t.n
let engine t = t.engine

let check_node t id =
  if id < 0 || id >= t.n then
    invalid_arg (Printf.sprintf "Network: node %d out of range 0..%d" id (t.n - 1))

let set_handler t node f =
  check_node t node;
  t.handlers.(node) <- Some f

let deliver t ~src ~dst msg =
  match t.handlers.(dst) with
  | Some f -> f ~src msg
  | None ->
    invalid_arg (Printf.sprintf "Network: node %d has no handler installed" dst)

(* The head's event: the oldest message behind it (if any) becomes the
   head, with the link's event at the time and seq it drew when sent,
   and then the old head is delivered. *)
let fire t l =
  let msg = l.head in
  if l.len = 0 then l.head <- None
  else begin
    let i = l.first in
    l.head <- l.msgs.(i);
    l.msgs.(i) <- None;
    l.first <- (i + 1) land (Array.length l.msgs - 1);
    l.len <- l.len - 1;
    Engine.schedule_at t.engine ~at:l.times.(i) ~seq:l.seqs.(i) l.fire
  end;
  deliver t ~src:l.src ~dst:l.dst (Option.get msg)

let link t ~src ~dst =
  let key = (src * t.n) + dst in
  match Links.find t.links key with
  | l -> l
  | exception Not_found ->
    let l =
      {
        src;
        dst;
        clamp = { last = 0. };
        paused = false;
        held = [];
        head = None;
        msgs = [||];
        times = [||];
        seqs = [||];
        first = 0;
        len = 0;
        fire = ignore;
      }
    in
    (* set here rather than by [let rec l = { ...; fire = ... }], which
       builds the record through the runtime's dummy blocks, two C calls
       per link *)
    l.fire <- (fun () -> fire t l);
    Links.add t.links key l;
    l

(* double the ring (or make its first two slots), oldest first *)
let grow l =
  let cap = Array.length l.msgs in
  let cap' = max 2 (2 * cap) in
  let msgs = Array.make cap' None
  and times = Array.make cap' 0.
  and seqs = Array.make cap' 0 in
  for k = 0 to l.len - 1 do
    let j = (l.first + k) land (cap - 1) in
    msgs.(k) <- l.msgs.(j);
    times.(k) <- l.times.(j);
    seqs.(k) <- l.seqs.(j)
  done;
  l.msgs <- msgs;
  l.times <- times;
  l.seqs <- seqs;
  l.first <- 0

(* [msg], due at [at], joins the link's messages in flight: as the head,
   with its event, on an idle link, else at the back of the ring. It
   takes its seq now, so it fires where an event scheduled now would *)
let enqueue t l ~at msg =
  let seq = Engine.reserve t.engine in
  l.clamp.last <- at;
  match l.head with
  | None ->
    l.head <- Some msg;
    Engine.schedule_at t.engine ~at ~seq l.fire
  | Some _ ->
    if l.len = Array.length l.msgs then grow l;
    let i = (l.first + l.len) land (Array.length l.msgs - 1) in
    l.msgs.(i) <- Some msg;
    l.times.(i) <- at;
    l.seqs.(i) <- seq;
    l.len <- l.len + 1

(* Kinds are nearly always string literals, so a physical-equality scan
   of the few seen so far finds the kind without hashing it; a kind
   built afresh for each message falls back to comparing contents. *)
let rec same_kind name = function
  | k :: rest -> if k.name == name then k else same_kind name rest
  | [] -> raise Not_found

let rec equal_kind name = function
  | k :: rest -> if String.equal k.name name then k else equal_kind name rest
  | [] -> raise Not_found

let kind_of t name =
  match same_kind name t.kind_cache with
  | k -> k
  | exception Not_found -> (
    match equal_kind name t.kind_cache with
    | k -> k
    | exception Not_found ->
      let k = { name; count = Mc_util.Stats.Counters.counter t.kinds name; metric = None } in
      t.kind_cache <- k :: t.kind_cache;
      k)

(* the later of two times: [Float.max] without its NaN and signed-zero
   cases, which sim times never take *)
let[@inline] later (a : float) b = if b > a then b else a

let transmit t link ~src ~dst ~bytes ~kind msg =
  t.messages <- t.messages + 1;
  t.bytes <- t.bytes + bytes;
  let k = kind_of t kind in
  incr k.count;
  let now = Engine.now t.engine in
  (* sender occupancy: consecutive sends from one node serialize *)
  let depart = later now t.send_free.(src) +. t.send_cost in
  t.send_free.(src) <- depart;
  let lat =
    Latency.sample t.latency ~src ~dst +. (float_of_int bytes *. t.byte_cost)
  in
  Mc_util.Stats.Summary.add t.latencies lat;
  (* FIFO per channel: never deliver before a message still in flight
     (a delivered one was due by now, so it cannot hold this one back) *)
  let at =
    match link.head with
    | None -> depart +. lat
    | Some _ -> later (depart +. lat) link.clamp.last
  in
  (match t.obs with
  | Some o ->
    let module M = Mc_obs.Metrics in
    M.Counter.incr o.c_msgs;
    M.Counter.add o.c_bytes bytes;
    M.Histogram.observe o.h_latency (at -. depart);
    let kc =
      match k.metric with
      | Some c -> c
      | None ->
        let c =
          M.Registry.counter o.reg ~help:"messages transmitted by kind"
            ~labels:[ ("kind", kind) ] "mc_net_messages_total"
        in
        k.metric <- Some c;
        c
    in
    M.Counter.incr kc
  | None -> ());
  (match t.observer with
  | Some f -> f ~src ~dst ~bytes ~kind ~seq:t.messages ~sent:depart ~recv:at msg
  | None -> ());
  if at > now then enqueue t link ~at msg
  else
    (* due at once (no latency, no sender occupancy): after the events
       already due now, as a loopback is; whatever this link still has
       in flight is due now too, and fires first. A negative latency
       puts [at] in the past, and the engine rejects the delay *)
    Engine.schedule t.engine ~delay:(at -. now) (fun () -> deliver t ~src ~dst msg)

let send t ~src ~dst ?(bytes = 64) ?(kind = "msg") msg =
  check_node t src;
  check_node t dst;
  if src = dst then
    (* Local loopback: delivered as an immediate event, no network cost. *)
    Engine.schedule t.engine ~delay:0. (fun () -> deliver t ~src ~dst msg)
  else begin
    let link = link t ~src ~dst in
    if link.paused then link.held <- (bytes, kind, msg) :: link.held
    else transmit t link ~src ~dst ~bytes ~kind msg
  end

let broadcast t ~src ?bytes ?kind msg =
  for dst = 0 to t.n - 1 do
    if dst <> src then send t ~src ~dst ?bytes ?kind msg
  done

let multicast t ~src ~dsts ?bytes ?kind msg =
  check_node t src;
  List.iter (fun dst -> if dst <> src then send t ~src ~dst ?bytes ?kind msg) dsts

let pause_link t ~src ~dst =
  check_node t src;
  check_node t dst;
  (link t ~src ~dst).paused <- true

let resume_link t ~src ~dst =
  check_node t src;
  check_node t dst;
  let link = link t ~src ~dst in
  link.paused <- false;
  let held = List.rev link.held in
  link.held <- [];
  List.iter (fun (bytes, kind, msg) -> transmit t link ~src ~dst ~bytes ~kind msg) held

let messages_sent t = t.messages
let bytes_sent t = t.bytes
let messages_by_kind t = Mc_util.Stats.Counters.to_list t.kinds
let latency_summary t = t.latencies

let reset_stats t =
  t.messages <- 0;
  t.bytes <- 0;
  t.latencies <- Mc_util.Stats.Summary.create ();
  List.iter
    (fun (kind, k) -> Mc_util.Stats.Counters.add t.kinds kind (-k))
    (Mc_util.Stats.Counters.to_list t.kinds)
