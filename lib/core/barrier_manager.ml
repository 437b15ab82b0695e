type episode_state = { arrived : bool array; mutable count : int; dep : int array }

(* episodes are keyed by (member set, episode number); the empty member
   set denotes a barrier over all processes *)
type t = {
  n : int;
  send : dst:int -> Protocol.msg -> unit;
  episodes : (int list * int, episode_state) Hashtbl.t;
  (* counts mode (placement routing): sent_matrix.(j).(i) is the
     cumulative number of updates process j reports having routed to
     process i - the Section-6 count vectors *)
  sent_matrix : int array array;
  mutable counts_mode : bool;
  mutable released : int;
}

let create ~n ~send =
  {
    n;
    send;
    episodes = Hashtbl.create 8;
    sent_matrix = Array.make_matrix n n 0;
    counts_mode = false;
    released = 0;
  }

let state t key =
  match Hashtbl.find_opt t.episodes key with
  | Some s -> s
  | None ->
    let s = { arrived = Array.make t.n false; count = 0; dep = Array.make t.n 0 } in
    Hashtbl.add t.episodes key s;
    s

let handle t ~src msg =
  match msg with
  | Protocol.Barrier_arrive { proc; episode; vc; members; sent } ->
    if proc <> src then invalid_arg "Barrier_manager: forged arrival origin";
    let members = List.sort_uniq compare members in
    if members <> [] && not (List.mem proc members) then
      invalid_arg "Barrier_manager: arrival from a non-member";
    let expected = if members = [] then t.n else List.length members in
    let s = state t (members, episode) in
    if s.arrived.(proc) then
      invalid_arg
        (Printf.sprintf "Barrier_manager: process %d arrived twice at episode %d"
           proc episode);
    s.arrived.(proc) <- true;
    s.count <- s.count + 1;
    Array.iteri (fun i v -> if v > s.dep.(i) then s.dep.(i) <- v) vc;
    if sent <> [||] then begin
      t.counts_mode <- true;
      Array.iteri (fun i v -> t.sent_matrix.(proc).(i) <- max t.sent_matrix.(proc).(i) v) sent
    end;
    if s.count = expected then begin
      t.released <- t.released + 1;
      Hashtbl.remove t.episodes (members, episode);
      let recipients =
        if members = [] then List.init t.n Fun.id else members
      in
      List.iter
        (fun dst ->
          (* in counts mode, tell each process how many updates from each
             peer it must have received before proceeding *)
          let expect =
            if t.counts_mode then Array.init t.n (fun j -> t.sent_matrix.(j).(dst))
            else [||]
          in
          t.send ~dst
            (Protocol.Barrier_release
               { episode; dep = Array.copy s.dep; members; expect }))
        recipients
    end
  | _ -> invalid_arg "Barrier_manager.handle: unexpected message"

let episodes_released t = t.released
