module History = Mc_history.History
module Op = Mc_history.Op
module Stream = Mc_history.Stream
module Commute = Mc_consistency.Commute

type race = { first : int; second : int; subject : string }

type report = {
  races : race list;
  locksets : Lockset.info list;
  hb_chains : int;
}

(* Happens-before chain clocks: entry [c] of an operation's clock is the
   highest 1-based rank of a chain-[c] operation that precedes or equals
   it, so an operation's own entry is its rank. A clock is as wide as the
   highest chain in the operation's past. *)
type clocks = {
  chain_of : int array;
  clock : int array array;
  chains : int;
  multi_chain : bool; (* some process ran on more than one chain *)
}

(* The stream gives each operation its chain, its rank and its program-
   order and synchronization covering in-edges. Reads-from is taken as
   [History.reads_from] draws it, from every writer of the value read:
   the stream links a read only to the writers that completed before it
   (or to the first later one), so a repeated value or a written initial
   value would lose edges the offline closure has. Those late edges can
   point against the stream's finalization order, so the clocks are
   folded in a topological order of the union. *)
let clocks h =
  let n = History.length h in
  let chain_of = Array.make n 0 and rank = Array.make n 0 in
  let preds = Array.make n [] in
  let proc_chain = Array.make (History.procs h) (-1) in
  let multi_chain = ref false in
  let on_finalize { Stream.op; chain; rank = r; in_edges } =
    let id = op.Op.id and p = op.Op.proc in
    chain_of.(id) <- chain;
    rank.(id) <- r + 1;
    preds.(id) <-
      List.filter_map
        (function Stream.U s | Stream.S s -> Some (Stream.state s) | Stream.RF _ -> None)
        in_edges;
    if proc_chain.(p) < 0 then proc_chain.(p) <- chain
    else if proc_chain.(p) <> chain then multi_chain := true;
    id
  in
  let s =
    Stream.feed_history h
      ~callbacks:
        {
          Stream.on_finalize;
          on_retire = ignore;
          on_dead_value = (fun ~loc:_ ~value:_ -> ());
          on_end = ignore;
        }
  in
  Array.iter
    (fun (o : Op.t) ->
      match Op.reads_value o with
      | Some (loc, v) ->
        List.iter
          (fun w -> if w <> o.id then preds.(o.id) <- w :: preds.(o.id))
          (History.writers_of h loc v)
      | None -> ())
    (History.ops h);
  let succs = Array.make n [] and indeg = Array.make n 0 in
  Array.iteri
    (fun j ->
      List.iter (fun i ->
          succs.(i) <- j :: succs.(i);
          indeg.(j) <- indeg.(j) + 1))
    preds;
  let ready = Queue.create () in
  Array.iteri (fun j d -> if d = 0 then Queue.add j ready) indeg;
  let clock = Array.make n [||] and folded = ref 0 in
  while not (Queue.is_empty ready) do
    let j = Queue.pop ready in
    incr folded;
    let width =
      List.fold_left
        (fun w i -> max w (Array.length clock.(i)))
        (chain_of.(j) + 1) preds.(j)
    in
    let c = Array.make width 0 in
    List.iter
      (fun i -> Array.iteri (fun k v -> if v > c.(k) then c.(k) <- v) clock.(i))
      preds.(j);
    c.(chain_of.(j)) <- rank.(j);
    clock.(j) <- c;
    List.iter
      (fun k ->
        indeg.(k) <- indeg.(k) - 1;
        if indeg.(k) = 0 then Queue.add k ready)
      succs.(j)
  done;
  if !folded <> n then invalid_arg "Race: cyclic causality relation";
  {
    chain_of;
    clock;
    chains = max 1 (Stream.chains s);
    multi_chain = !multi_chain;
  }

let precedes c i j =
  let k = c.chain_of.(i) in
  i <> j && k < Array.length c.clock.(j) && c.clock.(j).(k) >= c.clock.(i).(k)

let happens_before h = precedes (clocks h)

let detect ?shared h =
  let c = clocks h in
  let locksets = Lockset.analyze ?shared h in
  let ops = History.ops h in
  (* The lockset screen argues "every conflicting pair on a protected
     location is lock-ordered"; that argument needs each process's
     operations to be totally ordered (one chain per process). If any
     process has overlapping fibers, fall back to checking every pair. *)
  let protected_loc =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (i : Lockset.info) ->
        if Lockset.is_protected i then Hashtbl.replace tbl i.Lockset.loc ())
      locksets;
    fun loc -> (not c.multi_chain) && Hashtbl.mem tbl loc
  in
  (* conflict groups: only operations touching the same location — or
     acquiring the same lock — can fail to commute *)
  let mutators : (Op.location, int list) Hashtbl.t = Hashtbl.create 16 in
  let observers : (Op.location, int list) Hashtbl.t = Hashtbl.create 16 in
  let acquires : (Op.lock_name, int list) Hashtbl.t = Hashtbl.create 8 in
  let push tbl key id =
    Hashtbl.replace tbl key (id :: Option.value ~default:[] (Hashtbl.find_opt tbl key))
  in
  Array.iter
    (fun (o : Op.t) ->
      match Commute.footprint o with
      | Some { Commute.mutates = Some loc; _ } -> push mutators loc o.id
      | Some { Commute.observes = Some loc; _ } -> push observers loc o.id
      | Some _ -> ()
      | None -> (
        match o.kind with
        | Op.Read_lock l | Op.Write_lock l -> push acquires l o.id
        | _ -> ()))
    ops;
  let races = ref [] in
  let consider subject i j =
    if
      (not (Commute.commute ops.(i) ops.(j)))
      && not (precedes c i j || precedes c j i)
    then
      races :=
        { first = min i j; second = max i j; subject } :: !races
  in
  Hashtbl.iter
    (fun loc ms ->
      if not (protected_loc loc) then begin
        let os = Option.value ~default:[] (Hashtbl.find_opt observers loc) in
        (* at least one mutator per conflicting pair; observer pairs and
           commuting decrement pairs are rejected by Commute.commute *)
        let rec mutator_pairs = function
          | [] -> ()
          | m :: rest ->
            List.iter (fun m' -> consider loc m m') rest;
            List.iter (fun o -> consider loc m o) os;
            mutator_pairs rest
        in
        mutator_pairs ms
      end)
    mutators;
  Hashtbl.iter
    (fun lock ids ->
      let rec pairs = function
        | [] -> ()
        | a :: rest ->
          List.iter (fun b -> consider lock a b) rest;
          pairs rest
      in
      pairs ids)
    acquires;
  let races =
    List.sort_uniq
      (fun a b -> compare (a.first, a.second) (b.first, b.second))
      !races
  in
  { races; locksets; hb_chains = c.chains }

let race_pairs r = List.map (fun { first; second; _ } -> (first, second)) r.races

let diagnostics h r =
  let ops = History.ops h in
  let race_diags =
    List.map
      (fun { first; second; subject } ->
        Diag.make ~rule:"R001" ~severity:Diag.Error ~op_id:first
          ~related_op:second ~proc:ops.(first).Op.proc ~loc:subject
          (Format.asprintf
             "%a and %a are causally unrelated and do not commute"
             Op.pp ops.(first) Op.pp ops.(second)))
      r.races
  in
  race_diags @ Lockset.diagnostics r.locksets
