(* what the manager forwards with each grant, per lock *)
type payload = {
  dep : int array; (* accumulated release clock *)
  invalid : (Mc_history.Op.location, int array) Hashtbl.t;
      (* demand mode: write-set entries not yet known globally applied *)
  guarded : (Mc_history.Op.location, int * int) Hashtbl.t;
      (* entry mode: current (numeric, tag) of the lock's guarded
         variables, updated from each write unlock *)
}

type t = {
  demand : bool;
  send : dst:int -> Protocol.msg -> unit;
  arbiter : payload Lock_arbiter.t;
}

let invalid_list s =
  Hashtbl.fold (fun loc dep acc -> (loc, Array.copy dep) :: acc) s.invalid []

let guarded_list s =
  Hashtbl.fold (fun loc (numeric, tag) acc -> (loc, numeric, tag) :: acc) s.guarded []

let create ~n ~demand ~send =
  let init () =
    { dep = Array.make n 0; invalid = Hashtbl.create 4; guarded = Hashtbl.create 4 }
  in
  let grant lock s ~proc ~write ~seq =
    let invalid = if demand then invalid_list s else [] in
    send ~dst:proc
      (Protocol.Lock_grant
         { lock; write; seq; dep = Array.copy s.dep; invalid; values = guarded_list s })
  in
  { demand; send; arbiter = Lock_arbiter.create ~init ~grant }

let merge_dep dst src =
  Array.iteri (fun i v -> if v > dst.(i) then dst.(i) <- v) src

let handle t ~src msg =
  match msg with
  | Protocol.Lock_request { proc; lock; write } ->
    if proc <> src then invalid_arg "Lock_manager: forged request origin";
    Lock_arbiter.request t.arbiter lock ~proc ~write
  | Protocol.Unlock_msg { proc; lock; write; vc; write_set; values } ->
    Lock_arbiter.release t.arbiter lock ~proc ~write (fun s ~seq ->
        merge_dep s.dep vc;
        if t.demand && write then
          List.iter
            (fun loc ->
              match Hashtbl.find_opt s.invalid loc with
              | Some prev -> merge_dep prev vc
              | None -> Hashtbl.add s.invalid loc (Array.copy vc))
            write_set;
        List.iter
          (fun (loc, numeric, tag) -> Hashtbl.replace s.guarded loc (numeric, tag))
          values;
        t.send ~dst:proc (Protocol.Unlock_ack { lock; seq }))
  | _ -> invalid_arg "Lock_manager.handle: unexpected message"

let grants_issued t = Lock_arbiter.grants_issued t.arbiter
