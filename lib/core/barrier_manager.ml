module Tree = Mc_placement.Placement.Tree

(* (writer, shard, count) *)
type entry = int * int * int

(* one episode at one combiner: arrivals still expected (this node's own
   if it is a member, plus one per child), the senders seen so far (by
   child slot, this node's own arrival last) and the merged clock *)
type episode_state = {
  mutable waiting : int;
  seen : bool array;
  mutable merged : Protocol.barrier_clock option;
}

(* episodes are keyed by (member set, episode number); the empty member
   set denotes a barrier over all processes *)
type t = {
  node : int;
  tree : int list -> Tree.t;
  receivers : int -> int list;
  send : dst:int -> Protocol.msg -> unit;
  on_release : members:int list -> episode:int -> Protocol.barrier_clock -> unit;
  episodes : (int list * int, episode_state) Hashtbl.t;
  (* counts mode: the stream entries a completed subtree still owes its
     own members, kept until the release comes down *)
  held : (int list * int, entry list) Hashtbl.t;
  mutable released : int;
}

let create ~node ~tree ~receivers ~send ~on_release =
  {
    node;
    tree;
    receivers;
    send;
    on_release;
    episodes = Hashtbl.create 4;
    held = Hashtbl.create 4;
    released = 0;
  }

let is_member tree members u = Tree.mem tree u && (members = [] || List.mem u members)

(* the members that must hold stream (w, s) before leaving: the shard's
   subscribers in the barrier, the writer itself excepted *)
let needed t tree members (w, s, _) =
  List.filter (fun u -> u <> w && is_member tree members u) (t.receivers s)

(* [(inside, up)]: the entries a member in this node's subtree needs,
   and those a member outside it needs. An entry can be in both: it goes
   up and is also kept, since a parent never sends a subtree's own
   streams back down into it *)
let split_counts t tree members entries =
  let covers u = Tree.covers tree ~node:t.node u in
  List.fold_right
    (fun e (inside, up) ->
      let need = needed t tree members e in
      ( (if List.exists covers need then e :: inside else inside),
        if List.exists (fun u -> not (covers u)) need then e :: up else up ))
    entries ([], [])

let join t ~members ~episode clock =
  let tree = t.tree members in
  let first_hop =
    match Tree.parent tree t.node with
    | Some parent when Tree.child_count tree t.node = 0 -> parent
    | _ -> t.node (* the root and inner nodes combine their own arrival *)
  in
  let clock =
    match clock with
    | Protocol.Counts entries when first_hop <> t.node ->
      Protocol.Counts (snd (split_counts t tree members entries))
    | c -> c
  in
  t.send ~dst:first_hop
    (Protocol.Barrier_arrive { proc = t.node; episode; members; clock })

let merge merged clock =
  match (merged, clock) with
  | None, Protocol.Vector v -> Some (Protocol.Vector (Array.copy v))
  | None, c -> Some c
  | Some (Protocol.Vector acc), Protocol.Vector v ->
    Array.iteri (fun i x -> if x > acc.(i) then acc.(i) <- x) v;
    merged
  | Some (Protocol.Counts acc), Protocol.Counts es ->
    Some (Protocol.Counts (List.rev_append es acc))
  | Some _, _ -> invalid_arg "Barrier_manager: vector and count arrivals mixed"

(* a release leaves [t.node] for [own] (when it is a member) and for
   each child; under counts each gets only the entries it or its subtree
   still needs, collected by child slot *)
let release_down t tree ~members ~episode clock ~deliver_own =
  let own_member = is_member tree members t.node in
  let kids = Tree.children tree t.node in
  let release clock = Protocol.Barrier_release { episode; members; clock } in
  match clock with
  | Protocol.Vector _ ->
    if own_member then deliver_own clock;
    List.iter (fun c -> t.send ~dst:c (release clock)) kids
  | Protocol.Counts entries ->
    let own = ref [] and parts = Array.make (List.length kids) [] in
    List.iter
      (fun ((w, _, _) as e) ->
        (* a child's subtree never gets its own streams back *)
        let from = Tree.child_slot tree ~node:t.node w in
        List.iter
          (fun u ->
            if u = t.node then own := e :: !own
            else
              let j = Tree.child_slot tree ~node:t.node u in
              if j >= 0 && j <> from then
                match parts.(j) with
                | e' :: _ when e' == e -> () (* another receiver in the subtree *)
                | part -> parts.(j) <- e :: part)
          (needed t tree members e))
      entries;
    if own_member then deliver_own (Protocol.Counts (List.rev !own));
    List.iteri (fun j c -> t.send ~dst:c (release (Protocol.Counts (List.rev parts.(j))))) kids

let complete t tree key st =
  Hashtbl.remove t.episodes key;
  let members, episode = key in
  let clock = Option.get st.merged in
  match Tree.parent tree t.node with
  | Some parent ->
    let clock =
      match clock with
      | Protocol.Vector _ -> clock
      | Protocol.Counts entries ->
        let inside, up = split_counts t tree members entries in
        if inside <> [] then Hashtbl.replace t.held key inside;
        Protocol.Counts up
    in
    t.send ~dst:parent (Protocol.Barrier_arrive { proc = t.node; episode; members; clock })
  | None ->
    (* the root: every member has arrived. Its own release is a loopback
       message sent first, as the central manager's was *)
    t.released <- t.released + 1;
    release_down t tree ~members ~episode clock ~deliver_own:(fun own ->
        t.send ~dst:t.node (Protocol.Barrier_release { episode; members; clock = own }))

let handle t ~src msg =
  match msg with
  | Protocol.Barrier_arrive { proc; episode; members; clock } ->
    if proc <> src then invalid_arg "Barrier_manager: forged arrival origin";
    let tree = t.tree members in
    if src = t.node then begin
      if not (is_member tree members src) then
        invalid_arg "Barrier_manager: arrival from a non-member"
    end
    else if not (Tree.mem tree src && Tree.parent tree src = Some t.node) then
      invalid_arg
        (Printf.sprintf "Barrier_manager: arrival from %d, which is not a child of %d" src
           t.node);
    let key = (members, episode) in
    let st =
      match Hashtbl.find_opt t.episodes key with
      | Some st -> st
      | None ->
        let kids = Tree.child_count tree t.node in
        let own = if is_member tree members t.node then 1 else 0 in
        let st = { waiting = own + kids; seen = Array.make (kids + 1) false; merged = None } in
        Hashtbl.add t.episodes key st;
        st
    in
    let slot =
      if src = t.node then Array.length st.seen - 1
      else Tree.child_slot tree ~node:t.node src
    in
    if st.seen.(slot) then
      invalid_arg
        (Printf.sprintf "Barrier_manager: process %d arrived twice at episode %d" src episode);
    st.seen.(slot) <- true;
    st.merged <- merge st.merged clock;
    st.waiting <- st.waiting - 1;
    if st.waiting = 0 then complete t tree key st
  | Protocol.Barrier_release { episode; members; clock } ->
    let deliver_own own = t.on_release ~members ~episode own in
    if src = t.node then
      (* the root's loopback: its children were released already *)
      deliver_own clock
    else begin
      let tree = t.tree members in
      let key = (members, episode) in
      let clock =
        match (clock, Hashtbl.find_opt t.held key) with
        | Protocol.Counts entries, Some inside ->
          Hashtbl.remove t.held key;
          Protocol.Counts (List.rev_append inside entries)
        | _ -> clock
      in
      release_down t tree ~members ~episode clock ~deliver_own
    end
  | _ -> invalid_arg "Barrier_manager.handle: unexpected message"

let episodes_released t = t.released
