type policy =
  | Hash
  | Range of { objects : int }
  | Explicit of (Mc_history.Op.location -> int)

type obs = {
  c_churn : Mc_obs.Metrics.Counter.t;
  c_trees : Mc_obs.Metrics.Counter.t;
}

type t = {
  n_shards : int;
  t_policy : policy;
  t_fanout : int;
  (* shard -> subscribed node set *)
  subs : (int, (int, unit) Hashtbl.t) Hashtbl.t;
  (* node -> subscribed shard set *)
  node_subs : (int, (int, unit) Hashtbl.t) Hashtbl.t;
  loc_cache : (Mc_history.Op.location, int) Hashtbl.t;
  (* (shard, root) -> node -> children, rebuilt after subscription churn *)
  tree_cache : (int * int, (int, int list) Hashtbl.t) Hashtbl.t;
  sorted_cache : (int, int list) Hashtbl.t;
  mutable p_obs : obs option;
}

let policy_to_string = function
  | Hash -> "hash"
  | Range _ -> "range"
  | Explicit _ -> "explicit"

let policy_of_string = function
  | "hash" -> Ok Hash
  | "range" -> Ok (Range { objects = 0 })
  | s -> Error (Printf.sprintf "unknown placement policy %S (hash|range)" s)

let create ~shards ~policy ?(fanout = 4) () =
  if shards <= 0 then invalid_arg "Placement.create: need at least one shard";
  if fanout <= 0 then invalid_arg "Placement.create: fanout must be positive";
  {
    n_shards = shards;
    t_policy = policy;
    t_fanout = fanout;
    subs = Hashtbl.create 64;
    node_subs = Hashtbl.create 64;
    loc_cache = Hashtbl.create 256;
    tree_cache = Hashtbl.create 64;
    sorted_cache = Hashtbl.create 64;
    p_obs = None;
  }

let shards t = t.n_shards
let fanout t = t.t_fanout
let policy t = t.t_policy

(* trailing decimal run of [loc], e.g. "x:17" -> Some 17 *)
let numeric_suffix loc =
  let len = String.length loc in
  let rec start i =
    if i > 0 && loc.[i - 1] >= '0' && loc.[i - 1] <= '9' then start (i - 1)
    else i
  in
  let s = start len in
  if s = len then None else int_of_string_opt (String.sub loc s (len - s))

let check_shard t shard =
  if shard < 0 || shard >= t.n_shards then
    invalid_arg (Printf.sprintf "Placement: shard %d out of range" shard)

let compute_shard t loc =
  match t.t_policy with
  | Hash -> Hashtbl.hash loc mod t.n_shards
  | Range { objects } -> (
    match numeric_suffix loc with
    | Some id when objects > 0 ->
      let per = (objects + t.n_shards - 1) / t.n_shards in
      min (t.n_shards - 1) (id / per)
    | Some id -> id mod t.n_shards
    | None -> Hashtbl.hash loc mod t.n_shards)
  | Explicit f ->
    let s = f loc in
    check_shard t s;
    s

let shard_of_loc t loc =
  match Hashtbl.find_opt t.loc_cache loc with
  | Some s -> s
  | None ->
    let s = compute_shard t loc in
    Hashtbl.add t.loc_cache loc s;
    s

let set tbl key =
  match Hashtbl.find_opt tbl key with
  | Some s -> s
  | None ->
    let s = Hashtbl.create 8 in
    Hashtbl.add tbl key s;
    s

(* drop every cached tree of this shard, whatever its root *)
let invalidate t shard =
  Hashtbl.remove t.sorted_cache shard;
  let stale =
    Hashtbl.fold
      (fun (sh, root) _ acc -> if sh = shard then (sh, root) :: acc else acc)
      t.tree_cache []
  in
  List.iter (Hashtbl.remove t.tree_cache) stale

let note_churn t =
  match t.p_obs with
  | Some o -> Mc_obs.Metrics.Counter.incr o.c_churn
  | None -> ()

let subscribe t ~node ~shard =
  check_shard t shard;
  if node < 0 then invalid_arg "Placement.subscribe: negative node";
  Hashtbl.replace (set t.subs shard) node ();
  Hashtbl.replace (set t.node_subs node) shard ();
  invalidate t shard;
  note_churn t

let unsubscribe t ~node ~shard =
  check_shard t shard;
  (match Hashtbl.find_opt t.subs shard with
  | Some s -> Hashtbl.remove s node
  | None -> ());
  (match Hashtbl.find_opt t.node_subs node with
  | Some s -> Hashtbl.remove s shard
  | None -> ());
  invalidate t shard;
  note_churn t

let is_subscribed t ~node ~shard =
  match Hashtbl.find_opt t.subs shard with
  | Some s -> Hashtbl.mem s node
  | None -> false

let sorted_members tbl key =
  match Hashtbl.find_opt tbl key with
  | Some s -> List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) s [])
  | None -> []

let subscribers t ~shard =
  check_shard t shard;
  match Hashtbl.find_opt t.sorted_cache shard with
  | Some l -> l
  | None ->
    let l = sorted_members t.subs shard in
    Hashtbl.add t.sorted_cache shard l;
    l

let subscriptions t ~node = sorted_members t.node_subs node

let home t ~shard =
  match subscribers t ~shard with [] -> None | least :: _ -> Some least

module Tree = struct
  (* node ids are dense, so the low bits are a good hash, and a lookup
     (every step of a barrier's routing) calls no generic hash *)
  module Index = Hashtbl.Make (struct
    type t = int

    let equal = Int.equal
    let hash k = k land max_int
  end)

  type t = {
    order : int array; (* position -> node, root first *)
    index : int Index.t; (* node -> position *)
    k : int;
  }

  let create ~fanout order =
    if fanout <= 0 then invalid_arg "Placement.Tree.create: fanout must be positive";
    let len = Array.length order in
    if len = 0 then invalid_arg "Placement.Tree.create: empty order";
    let index = Index.create len in
    Array.iteri
      (fun i node ->
        if Index.mem index node then
          invalid_arg (Printf.sprintf "Placement.Tree.create: node %d repeated" node);
        Index.add index node i)
      order;
    (* a fanout past the last position gives the same tree and keeps
       [k * i] from overflowing *)
    { order; index; k = min fanout (max 1 (len - 1)) }

  let mem t node = Index.mem t.index node

  let position t node =
    match Index.find_opt t.index node with
    | Some i -> i
    | None -> invalid_arg (Printf.sprintf "Placement.Tree: node %d not in the tree" node)

  let parent t node =
    match position t node with 0 -> None | i -> Some t.order.((i - 1) / t.k)

  let children t node =
    let first = (t.k * position t node) + 1 in
    let last = min (Array.length t.order) (first + t.k) in
    List.init (max 0 (last - first)) (fun j -> t.order.(first + j))

  let covers t ~node target =
    let top = position t node in
    let rec up i = i = top || (i > top && up ((i - 1) / t.k)) in
    up (position t target)

  let child_count t node =
    let first = (t.k * position t node) + 1 in
    max 0 (min (Array.length t.order) (first + t.k) - first)

  (* the children of position [top] are [k * top + 1 ..], in order *)
  let child_slot t ~node target =
    let top = position t node in
    let rec up i =
      if i <= top then -1
      else
        let p = (i - 1) / t.k in
        if p = top then i - (t.k * top) - 1 else up p
    in
    up (position t target)
end

(* the dissemination tree of (shard, root): the heap layout over the
   subscriber list rotated so [root] leads. Rotation (not re-sorting)
   keeps the layout deterministic per (shard, root); the children lists
   are built once, so a relay hop allocates nothing *)
let build_tree t ~shard ~root =
  let subs = subscribers t ~shard in
  let order = Array.of_list (root :: List.filter (fun n -> n <> root) subs) in
  let tree = Tree.create ~fanout:t.t_fanout order in
  let tbl = Hashtbl.create (max 8 (Array.length order)) in
  Array.iter (fun node -> Hashtbl.replace tbl node (Tree.children tree node)) order;
  tbl

let children t ~shard ~root ~node =
  check_shard t shard;
  let tbl =
    match Hashtbl.find_opt t.tree_cache (shard, root) with
    | Some tbl -> tbl
    | None ->
      let tbl = build_tree t ~shard ~root in
      Hashtbl.add t.tree_cache (shard, root) tbl;
      (match t.p_obs with
      | Some o -> Mc_obs.Metrics.Counter.incr o.c_trees
      | None -> ());
      tbl
  in
  match Hashtbl.find_opt tbl node with Some cs -> cs | None -> []

let attach_metrics t reg =
  let module M = Mc_obs.Metrics in
  t.p_obs <-
    Some
      {
        c_churn =
          M.Registry.counter reg ~help:"shard subscription changes"
            "mc_placement_churn_total";
        c_trees =
          M.Registry.counter reg ~help:"dissemination tree (re)builds"
            "mc_placement_tree_builds_total";
      };
  for shard = 0 to t.n_shards - 1 do
    M.Registry.gauge_fn reg ~help:"nodes subscribed to shard"
      ~labels:[ ("shard", string_of_int shard) ]
      "mc_shard_subscribers"
      (fun () -> float_of_int (List.length (subscribers t ~shard)))
  done

let pp fmt t =
  Format.fprintf fmt "placement(%d shards, %s, fanout %d)" t.n_shards
    (policy_to_string t.t_policy)
    t.t_fanout
