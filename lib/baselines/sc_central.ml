module Op = Mc_history.Op

type msg =
  | Read_req of { proc : int; loc : Op.location }
  | Read_reply of { numeric : int; tag : int }
  | Write_req of { proc : int; loc : Op.location; numeric : int; tag : int }
  | Write_ack
  | Dec_req of { proc : int; loc : Op.location; amount : int }
  | Dec_reply of { observed : int }
  | Await_req of { proc : int; loc : Op.location; value : int }
  | Await_fire of { numeric : int; tag : int }

let kind = function
  | Read_req _ -> "read_req"
  | Read_reply _ -> "read_reply"
  | Write_req _ -> "write_req"
  | Write_ack -> "write_ack"
  | Dec_req _ -> "dec_req"
  | Dec_reply _ -> "dec_reply"
  | Await_req _ -> "await_req"
  | Await_fire _ -> "await_fire"

type t = {
  core : msg Sc_core.t;
  memory : (Op.location, int * int) Hashtbl.t; (* numeric, tag *)
  mutable awaiters : (int * Op.location * int) list; (* proc, loc, value *)
}

let server_node t = Sc_core.procs t.core

let mem_get t loc = Option.value ~default:(0, 0) (Hashtbl.find_opt t.memory loc)

let reply t ~dst m = Sc_core.send t.core ~src:(server_node t) ~dst m

(* fire awaits that became true after a memory change *)
let fire_awaits t loc =
  let numeric, tag = mem_get t loc in
  let fired, rest =
    List.partition (fun (_, l, v) -> l = loc && v = numeric) t.awaiters
  in
  t.awaiters <- rest;
  List.iter (fun (proc, _, _) -> reply t ~dst:proc (Await_fire { numeric; tag })) fired

let handle_server t = function
  | Read_req { proc; loc } ->
    let numeric, tag = mem_get t loc in
    reply t ~dst:proc (Read_reply { numeric; tag })
  | Write_req { proc; loc; numeric; tag } ->
    Hashtbl.replace t.memory loc (numeric, tag);
    fire_awaits t loc;
    reply t ~dst:proc Write_ack
  | Dec_req { proc; loc; amount } ->
    let numeric, tag = mem_get t loc in
    Hashtbl.replace t.memory loc (numeric - amount, tag);
    fire_awaits t loc;
    reply t ~dst:proc (Dec_reply { observed = numeric })
  | Await_req { proc; loc; value } ->
    let numeric, tag = mem_get t loc in
    if numeric = value then reply t ~dst:proc (Await_fire { numeric; tag })
    else t.awaiters <- (proc, loc, value) :: t.awaiters
  | Read_reply _ | Write_ack | Dec_reply _ | Await_fire _ ->
    invalid_arg "Sc_central: reply delivered to server"

let create engine ?(record = false) ~procs () =
  let core =
    Sc_core.create engine ~name:"Sc_central" ~record ~procs ~server:true ~kind
  in
  let t = { core; memory = Hashtbl.create 64; awaiters = [] } in
  Sc_core.serve core (fun node m ->
      if node = server_node t then handle_server t m else Sc_core.resume core node m);
  t

(* every access is one round trip to the server *)
let memory t client : Sc_core.memory =
  let call msg = Sc_core.call t.core client ~dst:(server_node t) msg in
  {
    load =
      (fun loc ->
        match call (Read_req { proc = client; loc }) with
        | Read_reply { numeric; tag } -> (numeric, tag)
        | _ -> assert false);
    store =
      (fun loc ~numeric ~tag ->
        match call (Write_req { proc = client; loc; numeric; tag }) with
        | Write_ack -> ()
        | _ -> assert false);
    decrement =
      (fun loc ~amount ->
        match call (Dec_req { proc = client; loc; amount }) with
        | Dec_reply { observed } -> observed
        | _ -> assert false);
    await =
      (fun loc value ->
        match call (Await_req { proc = client; loc; value }) with
        | Await_fire { numeric; tag } -> (numeric, tag)
        | _ -> assert false);
  }

let spawn t i f = Sc_core.spawn t.core ~fiber:"sc" i (memory t i) f
let run t = Sc_core.run t.core
let history t = Sc_core.history t.core
let peek t loc = fst (mem_get t loc)
let messages_sent t = Sc_core.messages_sent t.core
let bytes_sent t = Sc_core.bytes_sent t.core
let wait_summaries t = Sc_core.wait_summaries t.core
