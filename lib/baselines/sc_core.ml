module Engine = Mc_sim.Engine
module Network = Mc_net.Network
module Op = Mc_history.Op
module Recorder = Mc_history.Recorder
module Summary = Mc_util.Stats.Summary
module Cost = Mc_dsm.Cost
module Lock_arbiter = Mc_dsm.Lock_arbiter

type 'm msg =
  | Mem of 'm
  | Lock_req of { lock : Op.lock_name; write : bool }
  | Lock_grant of { seq : int }
  | Unlock_req of { lock : Op.lock_name; write : bool }
  | Unlock_ack of { seq : int }
  | Bar_arrive of { episode : int }
  | Bar_release

type 'm t = {
  engine : Engine.t;
  name : string;
  procs : int;
  manager : int; (* node running the lock and barrier manager *)
  kind : 'm -> string;
  net : 'm msg Network.t;
  locks : unit Lock_arbiter.t;
  mutable bar_count : int;
  mutable bar_episode : int;
  replies : ('m msg -> unit) option array; (* per-client pending resolver *)
  recorder : Recorder.t option;
  mutable tag_counter : int;
  waits : (string, Summary.t) Hashtbl.t;
}

let kind t = function
  | Mem m -> t.kind m
  | Lock_req _ -> "lock_req"
  | Lock_grant _ -> "lock_grant"
  | Unlock_req _ -> "unlock_req"
  | Unlock_ack _ -> "unlock_ack"
  | Bar_arrive _ -> "bar_arrive"
  | Bar_release -> "bar_release"

let transmit t ~src ~dst msg = Network.send t.net ~src ~dst ~kind:(kind t msg) msg
let send t ~src ~dst m = transmit t ~src ~dst (Mem m)

let create engine ~name ~record ~procs ~server ~kind =
  let manager = if server then procs else 0 in
  let net = Cost.network engine ~nodes:(if server then procs + 1 else procs) () in
  let grant _lock () ~proc ~write:_ ~seq =
    Network.send net ~src:manager ~dst:proc ~kind:"lock_grant" (Lock_grant { seq })
  in
  {
    engine;
    name;
    procs;
    manager;
    kind;
    net;
    locks = Lock_arbiter.create ~init:ignore ~grant;
    bar_count = 0;
    bar_episode = 0;
    replies = Array.make procs None;
    recorder = (if record then Some (Recorder.create ~procs ()) else None);
    tag_counter = 0;
    waits = Hashtbl.create 8;
  }

let engine t = t.engine
let procs t = t.procs

(* ------------------------------------------------------------------ *)
(* Lock / barrier manager                                              *)
(* ------------------------------------------------------------------ *)

let unlock t ~proc lock ~write =
  Lock_arbiter.release t.locks lock ~proc ~write (fun () ~seq ->
      transmit t ~src:t.manager ~dst:proc (Unlock_ack { seq }))

let arrive t episode =
  if episode <> t.bar_episode then invalid_arg (t.name ^ ": barrier episode mismatch");
  t.bar_count <- t.bar_count + 1;
  if t.bar_count = t.procs then begin
    t.bar_count <- 0;
    t.bar_episode <- episode + 1;
    for dst = 0 to t.procs - 1 do
      transmit t ~src:t.manager ~dst Bar_release
    done
  end

(* ------------------------------------------------------------------ *)
(* Request / reply                                                     *)
(* ------------------------------------------------------------------ *)

let complete t client msg =
  match t.replies.(client) with
  | Some k ->
    t.replies.(client) <- None;
    k msg
  | None -> invalid_arg (t.name ^ ": reply with no pending request")

let resume t client m = complete t client (Mem m)

let serve t handle =
  for node = 0 to Network.nodes t.net - 1 do
    Network.set_handler t.net node (fun ~src msg ->
        match msg with
        | Mem m -> handle node m
        | Lock_req { lock; write } -> Lock_arbiter.request t.locks lock ~proc:src ~write
        | Unlock_req { lock; write } -> unlock t ~proc:src lock ~write
        | Bar_arrive { episode } -> arrive t episode
        | Lock_grant _ | Unlock_ack _ | Bar_release -> complete t node msg)
  done

(* blocking round trip: send the request, suspend until the reply *)
let rpc t client ~dst msg =
  transmit t ~src:client ~dst msg;
  Engine.suspend t.engine (fun k ->
      if t.replies.(client) <> None then
        invalid_arg (t.name ^ ": overlapping requests from one client");
      t.replies.(client) <- Some k)

let call t client ~dst m =
  match rpc t client ~dst (Mem m) with
  | Mem r -> r
  | _ -> invalid_arg (t.name ^ ": synchronization reply to a memory request")

(* ------------------------------------------------------------------ *)
(* Client operations                                                   *)
(* ------------------------------------------------------------------ *)

type memory = {
  load : Op.location -> int * int;
  store : Op.location -> numeric:int -> tag:int -> unit;
  decrement : Op.location -> amount:int -> int;
  await : Op.location -> int -> int * int;
}

let note_wait t name dt =
  let s =
    match Hashtbl.find_opt t.waits name with
    | Some s -> s
    | None ->
      let s = Summary.create () in
      Hashtbl.add t.waits name s;
      s
  in
  Summary.add s dt

let recorded_value ~numeric ~tag = if tag <> 0 then tag else numeric

let fresh_tag t client =
  t.tag_counter <- t.tag_counter + 1;
  ((client + 1) lsl 40) lor t.tag_counter

(* one blocking operation: charge its cost, then run [f], recording its
   span as one history op (invocation now, response when [f] returns,
   kind and grant order computed from [f]'s result) and its blocking
   time under [name] *)
let blocking t client name ?seq kind f =
  Engine.delay t.engine Cost.op_cost;
  let t0 = Engine.now t.engine in
  let token = Option.map (fun r -> Recorder.start r ~proc:client) t.recorder in
  let result = f () in
  (match t.recorder, token with
  | Some r, Some tok ->
    let sync_seq = Option.map (fun seq -> seq result) seq in
    ignore (Recorder.finish r tok ?sync_seq (kind result))
  | _ -> ());
  note_wait t name (Engine.now t.engine -. t0);
  result

let api t client m : Mc_dsm.Api.t =
  let read ?(label = Op.Causal) loc =
    fst
      (blocking t client "read"
         (fun (numeric, tag) -> Op.Read { loc; label; value = recorded_value ~numeric ~tag })
         (fun () -> m.load loc))
  in
  let write loc v =
    blocking t client "write"
      (fun tag -> Op.Write { loc; value = tag })
      (fun () ->
        let tag = fresh_tag t client in
        m.store loc ~numeric:v ~tag;
        tag)
    |> ignore
  in
  let init_counter loc v =
    blocking t client "write"
      (fun () -> Op.Write { loc; value = v })
      (fun () -> m.store loc ~numeric:v ~tag:0)
  in
  let decrement loc ~amount =
    blocking t client "decrement"
      (fun observed -> Op.Decrement { loc; amount; observed })
      (fun () -> m.decrement loc ~amount)
    |> ignore
  in
  let lock_op ~write ~acquire lock =
    let name, kind =
      match write, acquire with
      | true, true -> ("write_lock", Op.Write_lock lock)
      | true, false -> ("write_unlock", Op.Write_unlock lock)
      | false, true -> ("read_lock", Op.Read_lock lock)
      | false, false -> ("read_unlock", Op.Read_unlock lock)
    in
    let msg = if acquire then Lock_req { lock; write } else Unlock_req { lock; write } in
    blocking t client name ~seq:Fun.id
      (fun _ -> kind)
      (fun () ->
        match rpc t client ~dst:t.manager msg with
        | Lock_grant { seq } | Unlock_ack { seq } -> seq
        | _ -> assert false)
    |> ignore
  in
  let episode = ref 0 in
  let barrier () =
    blocking t client "barrier"
      (fun k -> Op.Barrier k)
      (fun () ->
        let k = !episode in
        incr episode;
        match rpc t client ~dst:t.manager (Bar_arrive { episode = k }) with
        | Bar_release -> k
        | _ -> assert false)
    |> ignore
  in
  let await loc v =
    blocking t client "await"
      (fun (numeric, tag) -> Op.Await { loc; value = recorded_value ~numeric ~tag })
      (fun () -> m.await loc v)
    |> ignore
  in
  {
    Mc_dsm.Api.proc_id = client;
    n_procs = t.procs;
    read;
    write;
    init_counter;
    decrement;
    read_lock = lock_op ~write:false ~acquire:true;
    read_unlock = lock_op ~write:false ~acquire:false;
    write_lock = lock_op ~write:true ~acquire:true;
    write_unlock = lock_op ~write:true ~acquire:false;
    barrier;
    await;
    compute = (fun cost -> Engine.delay t.engine cost);
  }

let spawn t ~fiber i m f =
  Engine.spawn t.engine ~name:(Printf.sprintf "%s-client-%d" fiber i) (fun () ->
      f (api t i m))

let run t = Engine.run t.engine

let history t =
  match t.recorder with
  | Some r -> Recorder.history r
  | None -> invalid_arg (t.name ^ ".history: recording is disabled")

let messages_sent t = Network.messages_sent t.net
let bytes_sent t = Network.bytes_sent t.net

let wait_summaries t =
  Hashtbl.fold (fun name s acc -> (name, s) :: acc) t.waits []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

module type MEMORY = sig
  type t

  val create : Engine.t -> ?record:bool -> procs:int -> unit -> t
  val spawn : t -> int -> (Mc_dsm.Api.t -> unit) -> unit
  val run : t -> float
  val history : t -> Mc_history.History.t
  val messages_sent : t -> int
  val bytes_sent : t -> int
  val wait_summaries : t -> (string * Summary.t) list
end
