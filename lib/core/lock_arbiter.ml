type request = { proc : int; write : bool }

type 'a lock = {
  payload : 'a;
  queue : request Queue.t;
  mutable writer : int option;
  mutable readers : int list; (* multiset of reader process ids *)
  mutable seq : int; (* next grant-order number *)
}

type 'a t = {
  init : unit -> 'a;
  grant : Mc_history.Op.lock_name -> 'a -> proc:int -> write:bool -> seq:int -> unit;
  locks : (Mc_history.Op.lock_name, 'a lock) Hashtbl.t;
  mutable grants : int;
}

let create ~init ~grant = { init; grant; locks = Hashtbl.create 8; grants = 0 }

let state t name =
  match Hashtbl.find_opt t.locks name with
  | Some l -> l
  | None ->
    let l =
      { payload = t.init (); queue = Queue.create (); writer = None; readers = []; seq = 0 }
    in
    Hashtbl.add t.locks name l;
    l

let next_seq l =
  let seq = l.seq in
  l.seq <- seq + 1;
  seq

let admit t name l r =
  t.grants <- t.grants + 1;
  if r.write then l.writer <- Some r.proc else l.readers <- r.proc :: l.readers;
  t.grant name l.payload ~proc:r.proc ~write:r.write ~seq:(next_seq l)

let rec try_grant t name l =
  match Queue.peek_opt l.queue with
  | None -> ()
  | Some r ->
    if r.write then begin
      if l.writer = None && l.readers = [] then begin
        ignore (Queue.pop l.queue);
        admit t name l r
      end
    end
    else if l.writer = None then begin
      ignore (Queue.pop l.queue);
      admit t name l r;
      try_grant t name l
    end

let request t name ~proc ~write =
  let l = state t name in
  Queue.push { proc; write } l.queue;
  try_grant t name l

let release t name ~proc ~write k =
  let l = state t name in
  (if write then
     match l.writer with
     | Some p when p = proc -> l.writer <- None
     | Some _ | None ->
       invalid_arg
         (Printf.sprintf "Lock_arbiter: write unlock of %s by non-holder %d" name proc)
   else begin
     if not (List.mem proc l.readers) then
       invalid_arg
         (Printf.sprintf "Lock_arbiter: read unlock of %s by non-reader %d" name proc);
     let rec remove_one = function
       | [] -> []
       | p :: rest -> if p = proc then rest else p :: remove_one rest
     in
     l.readers <- remove_one l.readers
   end);
  k l.payload ~seq:(next_seq l);
  try_grant t name l

let grants_issued t = t.grants
