module Relation = Mc_util.Relation

type lock_mode = Mode_read | Mode_write
type acquisition = { lock : Op.lock_name; mode : lock_mode; acquired_by : int }
type eraser = Exclusive | Shared | Shared_modified

type lockset = {
  loc : Op.location;
  accessors : int list;
  state : eraser;
  candidates : Op.lock_name list;
  first_unprotected : int option;
  awaited : bool;
}

type walk = {
  held : acquisition list array;
  phase : int array;
  held_at_end : acquisition list array;
  locations : (Op.location, lockset) Hashtbl.t;
}

type t = {
  procs : int;
  ops : Op.t array;
  writers : (Op.location * Op.value, int list) Hashtbl.t;
  (* memoized derived relations *)
  mutable program_order_memo : Relation.t option;
  mutable reads_from_memo : Relation.t option;
  mutable await_order_memo : Relation.t option;
  mutable sync_reduced_memo : Relation.t option;
  mutable causality_memo : Relation.t option;
  (* string-keyed memo for relations derived by other layers (the
     lattice engine caches one closure per axiom set here) *)
  rel_cache : (string, Relation.t) Hashtbl.t;
  (* whether the history meets [Stream]'s restrictions, once asked *)
  mutable restrictions_memo : bool option;
  (* location -> ids of the operations reading or writing it, built on
     first use *)
  mutable loc_index : (Op.location, int list) Hashtbl.t option;
  mutable walk_memo : walk option;
}

let create ~procs ops =
  if procs <= 0 then invalid_arg "History.create: need at least one process";
  Array.iteri
    (fun i (op : Op.t) ->
      if op.id <> i then
        invalid_arg
          (Printf.sprintf "History.create: op at index %d has id %d" i op.id);
      if op.proc < 0 || op.proc >= procs then
        invalid_arg
          (Printf.sprintf "History.create: op %d has process %d out of range" i
             op.proc))
    ops;
  let writers = Hashtbl.create 64 in
  Array.iter
    (fun (op : Op.t) ->
      match Op.writes_value op with
      | Some (loc, v) ->
        let key = (loc, v) in
        let prev = Option.value ~default:[] (Hashtbl.find_opt writers key) in
        Hashtbl.replace writers key (op.id :: prev)
      | None -> ())
    ops;
  {
    procs;
    ops;
    writers;
    program_order_memo = None;
    reads_from_memo = None;
    await_order_memo = None;
    sync_reduced_memo = None;
    causality_memo = None;
    rel_cache = Hashtbl.create 8;
    restrictions_memo = None;
    loc_index = None;
    walk_memo = None;
  }

let procs t = t.procs
let ops t = t.ops
let length t = Array.length t.ops
let op t i = t.ops.(i)
let initial_value _t _loc = 0

let writers_of t loc v =
  Option.value ~default:[] (Hashtbl.find_opt t.writers (loc, v)) |> List.sort compare

let build_loc_index t =
  let index = Hashtbl.create 64 in
  (* walking ids downwards leaves every list ascending *)
  for id = Array.length t.ops - 1 downto 0 do
    let note = function
      | None -> ()
      | Some (loc, _) -> (
        match Hashtbl.find_opt index loc with
        | Some (id' :: _) when id' = id -> () (* a decrement reads and writes *)
        | prev -> Hashtbl.replace index loc (id :: Option.value ~default:[] prev))
    in
    note (Op.writes_value t.ops.(id));
    note (Op.reads_value t.ops.(id))
  done;
  index

let cached_relation t key compute =
  match Hashtbl.find_opt t.rel_cache key with
  | Some r -> r
  | None ->
    let r = compute () in
    Hashtbl.add t.rel_cache key r;
    r

(* the memo holds one of two constants, so filling it allocates nothing *)
let memo_restrictions t check =
  match t.restrictions_memo with
  | Some b -> b
  | None ->
    let b = check t in
    t.restrictions_memo <- (if b then Some true else Some false);
    b

(* Memoization helper over the mutable record fields. *)
let with_memo get set t compute =
  match get t with
  | Some r -> r
  | None ->
    let r = compute t in
    set t (Some r);
    r

let ops_at t loc =
  let index =
    with_memo (fun t -> t.loc_index) (fun t v -> t.loc_index <- v) t build_loc_index
  in
  Option.value ~default:[] (Hashtbl.find_opt index loc)

(* ------------------------------------------------------------------ *)
(* Program order                                                       *)
(* ------------------------------------------------------------------ *)

(* An operation's successors are the operations of its process invoked
   after its response: a suffix of the process's invocation order.
   Walked by descending response, that suffix only grows, so each row is
   the row before it plus the operations whose invocations the walk has
   just passed: one row OR per operation, and no test per pair.
   An invocation precedes its response, as the recorder makes it, so no
   operation is its own successor. The recorder numbers a process's
   operations in response order, and in invocation order too unless
   they overlap, so the sorts are mostly checks. *)
let sort_unless_sorted cmp a =
  let rec sorted i = i >= Array.length a || (cmp a.(i - 1) a.(i) <= 0 && sorted (i + 1)) in
  if not (sorted 1) then Array.sort cmp a

let compute_program_order t =
  let r = Relation.create (length t) in
  let by_proc = Array.make t.procs [] in
  Array.iter (fun (o : Op.t) -> by_proc.(o.proc) <- o :: by_proc.(o.proc)) t.ops;
  Array.iter
    (fun ops_of_p ->
      (* [ops_of_p] is in descending id order *)
      let by_resp = Array.of_list ops_of_p in
      let n = Array.length by_resp in
      let by_inv = Array.init n (fun k -> by_resp.(n - 1 - k)) in
      sort_unless_sorted (fun (a : Op.t) (b : Op.t) -> Int.compare a.inv_seq b.inv_seq) by_inv;
      sort_unless_sorted (fun (a : Op.t) (b : Op.t) -> Int.compare b.resp_seq a.resp_seq) by_resp;
      let next = ref (Array.length by_inv) (* the suffix start in [by_inv] *) in
      Array.iteri
        (fun k (o : Op.t) ->
          if k > 0 then Relation.union_row r ~src:by_resp.(k - 1).id ~dst:o.id;
          while !next > 0 && by_inv.(!next - 1).inv_seq > o.resp_seq do
            decr next;
            Relation.add r o.id by_inv.(!next).id
          done)
        by_resp)
    by_proc;
  r

let program_order t =
  with_memo
    (fun t -> t.program_order_memo)
    (fun t v -> t.program_order_memo <- v)
    t compute_program_order

(* ------------------------------------------------------------------ *)
(* Reads-from                                                          *)
(* ------------------------------------------------------------------ *)

let compute_reads_from t =
  let n = length t in
  let r = Relation.create n in
  Array.iter
    (fun (o : Op.t) ->
      match Op.reads_value o with
      | Some (loc, v) ->
        List.iter
          (fun w -> if w <> o.id then Relation.add r w o.id)
          (writers_of t loc v)
      | None -> ())
    t.ops;
  r

let reads_from t =
  with_memo
    (fun t -> t.reads_from_memo)
    (fun t v -> t.reads_from_memo <- v)
    t compute_reads_from

(* ------------------------------------------------------------------ *)
(* Synchronization covering                                            *)
(* ------------------------------------------------------------------ *)

(* The lock, barrier and await orders of Section 3 are built here only as
   coverings: sparse relations with the same transitive closure, defined
   edge-for-edge so that [Stream] reproduces them online. *)

type epoch = Write_epoch of int list | Read_epoch of int list

(* Group the lock operations of one lock object, sorted by the manager
   grant order, into epochs: each write critical section is its own epoch;
   maximal runs of read lock/unlock operations form shared epochs. *)
let epochs_of_lock ops_sorted =
  let finish current acc =
    match current with
    | [] -> acc
    | ops -> Read_epoch (List.rev ops) :: acc
  in
  let rec walk acc current = function
    | [] -> List.rev (finish current acc)
    | (o : Op.t) :: rest -> (
      match o.kind with
      | Op.Write_lock _ -> (
        let acc = finish current acc in
        (* consume until the matching write unlock by the same process *)
        match rest with
        | (u : Op.t) :: rest' when u.proc = o.proc
                                   && (match u.kind with
                                      | Op.Write_unlock _ -> true
                                      | _ -> false) ->
          walk (Write_epoch [ o.id; u.id ] :: acc) [] rest'
        | _ ->
          (* unmatched write lock (end of history inside a critical
             section): epoch contains just the lock operation *)
          walk (Write_epoch [ o.id ] :: acc) [] rest)
      | Op.Read_lock _ | Op.Read_unlock _ -> walk acc (o.id :: current) rest
      | _ -> walk acc current rest)
  in
  walk [] [] ops_sorted

let epoch_ops = function Write_epoch l -> l | Read_epoch l -> l

let compute_await_order t =
  let n = length t in
  let r = Relation.create n in
  Array.iter
    (fun (o : Op.t) ->
      match o.kind with
      | Op.Await { loc; value } ->
        (* the unique write installing the awaited value precedes the
           await; awaiting the initial value has no incoming edge *)
        List.iter
          (fun w -> if w <> o.id then Relation.add r w o.id)
          (writers_of t loc value)
      | _ -> ())
    t.ops;
  r

let await_order t =
  with_memo
    (fun t -> t.await_order_memo)
    (fun t v -> t.await_order_memo <- v)
    t compute_await_order

(* Structural covering of the lock order: the intra-epoch edges plus the
   surface edges between adjacent epochs (from the operations of an epoch
   with no intra-epoch successor to the operations of the next epoch with
   no intra-epoch predecessor). For lock orders this equals the canonical
   transitive reduction; unlike a generic matrix reduction it can also be
   produced edge-for-edge by the streaming checker, which keeps the
   offline and online PRAM relations identical. *)
let compute_lock_covering t =
  let n = length t in
  let r = Relation.create n in
  let by_lock = Hashtbl.create 8 in
  Array.iter
    (fun (o : Op.t) ->
      match Op.lock_of o with
      | Some l ->
        let prev = Option.value ~default:[] (Hashtbl.find_opt by_lock l) in
        Hashtbl.replace by_lock l (o :: prev)
      | None -> ())
    t.ops;
  Hashtbl.iter
    (fun _lock ops_of_l ->
      let sorted =
        List.sort
          (fun (a : Op.t) (b : Op.t) -> compare a.sync_seq b.sync_seq)
          ops_of_l
      in
      let epochs = Array.of_list (epochs_of_lock sorted) in
      (* intra-epoch edges, remembering which side of a pair each op is on *)
      let has_succ = Hashtbl.create 8 and has_pred = Hashtbl.create 8 in
      Array.iter
        (function
          | Write_epoch [ a; b ] ->
            Relation.add r a b;
            Hashtbl.replace has_succ a ();
            Hashtbl.replace has_pred b ()
          | Write_epoch _ -> ()
          | Read_epoch ops ->
            let open_locks = Hashtbl.create 4 in
            List.iter
              (fun id ->
                let o = t.ops.(id) in
                match o.kind with
                | Op.Read_lock _ -> Hashtbl.replace open_locks o.proc id
                | Op.Read_unlock _ -> (
                  match Hashtbl.find_opt open_locks o.proc with
                  | Some lid ->
                    Relation.add r lid id;
                    Hashtbl.replace has_succ lid ();
                    Hashtbl.replace has_pred id ();
                    Hashtbl.remove open_locks o.proc
                  | None -> ())
                | _ -> ())
              ops)
        epochs;
      (* surface edges between adjacent epochs *)
      for e = 0 to Array.length epochs - 2 do
        let srcs =
          List.filter
            (fun a -> not (Hashtbl.mem has_succ a))
            (epoch_ops epochs.(e))
        and dsts =
          List.filter
            (fun b -> not (Hashtbl.mem has_pred b))
            (epoch_ops epochs.(e + 1))
        in
        List.iter (fun a -> List.iter (fun b -> Relation.add r a b) dsts) srcs
      done)
    by_lock;
  r

(* Structural covering of the barrier order: for every operation [o] of
   process [j], an edge to every member of the first barrier episode(s)
   following [o] on [j], and from every member of the last episode(s)
   preceding [o] on [j]. Chaining through the per-process episode
   sequence reproduces the full barrier order under transitive closure
   while emitting O(members) edges per operation. *)
let compute_barrier_covering t =
  let n = length t in
  let r = Relation.create n in
  let episodes = Hashtbl.create 8 in
  Array.iter
    (fun (o : Op.t) ->
      match Op.barrier_episode o with
      | Some key ->
        let prev = Option.value ~default:[] (Hashtbl.find_opt episodes key) in
        Hashtbl.replace episodes key (o.id :: prev)
      | None -> ())
    t.ops;
  let members bid =
    match Op.barrier_episode t.ops.(bid) with
    | Some key -> Option.value ~default:[] (Hashtbl.find_opt episodes key)
    | None -> []
  in
  let by_proc = Array.make t.procs [] in
  Array.iter (fun (o : Op.t) -> by_proc.(o.proc) <- o.id :: by_proc.(o.proc)) t.ops;
  Array.iter
    (fun ids ->
      let sorted =
        List.sort
          (fun a b -> compare t.ops.(a).inv_seq t.ops.(b).inv_seq)
          ids
      in
      (* greedy first-fit chain decomposition, as in the online engine:
         an op joins the first chain whose last response precedes its
         invocation *)
      let chains = ref [] (* (last_resp ref, ops-in-order ref) per chain *) in
      let chain_of = Hashtbl.create 8 in
      List.iter
        (fun id ->
          let o = t.ops.(id) in
          match
            List.find_opt (fun (last, _) -> !last < o.inv_seq) !chains
          with
          | Some ((last, ops_r) as c) ->
            last := o.resp_seq;
            ops_r := id :: !ops_r;
            Hashtbl.replace chain_of id c
          | None ->
            let c = (ref o.resp_seq, ref [ id ]) in
            chains := !chains @ [ c ];
            Hashtbl.replace chain_of id c)
        sorted;
      let barriers =
        List.filter (fun id -> Op.barrier_episode t.ops.(id) <> None) sorted
      in
      (* first-following: for each barrier b, an edge from the maximal op
         of every chain in b's window (responses strictly between the
         previous barrier's invocation and b's invocation) to every
         member of b's episode. Non-maximal window ops reach the episode
         through program order within their own chain, which preserves
         every per-process filtered closure. *)
      List.iter
        (fun bid ->
          let b = t.ops.(bid) in
          let threshold =
            List.fold_left
              (fun acc bid' ->
                let b' = t.ops.(bid') in
                if bid' <> bid && b'.resp_seq < b.inv_seq then
                  max acc b'.inv_seq
                else acc)
              (-1) barriers
          in
          List.iter
            (fun (_, ops_r) ->
              let src =
                List.fold_left
                  (fun acc id ->
                    let o = t.ops.(id) in
                    if o.resp_seq > threshold && o.resp_seq < b.inv_seq then
                      match acc with
                      | Some best when t.ops.(best).resp_seq >= o.resp_seq -> acc
                      | _ -> Some id
                    else acc)
                  None !ops_r
              in
              match src with
              | Some src ->
                List.iter
                  (fun m -> if m <> src then Relation.add r src m)
                  (members bid)
              | None -> ())
            !chains)
        barriers;
      (* last-preceding: the first op of each chain after an episode gets
         edges from every member; later chain ops reach it through
         program order *)
      List.iter
        (fun (_, ops_r) ->
          let marker = ref None in
          List.iter
            (fun oid ->
              let o = t.ops.(oid) in
              let last_b =
                List.fold_left
                  (fun acc bid ->
                    let b = t.ops.(bid) in
                    if bid <> oid && b.resp_seq < o.inv_seq then
                      match acc with
                      | Some best when t.ops.(best).resp_seq >= b.resp_seq -> acc
                      | _ -> Some bid
                    else acc)
                  None barriers
              in
              if last_b <> !marker then begin
                marker := last_b;
                match last_b with
                | Some bid ->
                  List.iter
                    (fun m -> if m <> oid then Relation.add r m oid)
                    (members bid)
                | None -> ()
              end)
            (List.rev !ops_r))
        !chains)
    by_proc;
  r

let compute_sync_reduced t =
  Relation.union
    (compute_lock_covering t)
    (Relation.union (compute_barrier_covering t) (await_order t))

let sync_order_reduced t =
  with_memo
    (fun t -> t.sync_reduced_memo)
    (fun t v -> t.sync_reduced_memo <- v)
    t compute_sync_reduced

(* ------------------------------------------------------------------ *)
(* Causality                                                           *)
(* ------------------------------------------------------------------ *)

let causality_base t =
  Relation.union (program_order t)
    (Relation.union (reads_from t) (sync_order_reduced t))

let compute_causality t =
  let closure = Relation.transitive_closure (causality_base t) in
  (* a cyclic causality relation means some op precedes itself *)
  let cyclic = ref false in
  for i = 0 to length t - 1 do
    if Relation.mem closure i i then cyclic := true
  done;
  if !cyclic then invalid_arg "History.causality: cyclic causality relation";
  closure

let causality t =
  with_memo
    (fun t -> t.causality_memo)
    (fun t v -> t.causality_memo <- v)
    t compute_causality

let causality_is_acyclic t =
  match causality t with
  | (_ : Relation.t) -> true
  | exception Invalid_argument _ -> false

(* ------------------------------------------------------------------ *)
(* Well-formedness                                                     *)
(* ------------------------------------------------------------------ *)

type violation = { op_id : int option; reason : string }

let well_formedness_violations t =
  let violations = ref [] in
  let report ?op_id reason = violations := { op_id; reason } :: !violations in
  (* 1. event sequence numbers: invocation precedes response; per-process
     event numbers are distinct *)
  let seen_events = Hashtbl.create 64 in
  Array.iter
    (fun (o : Op.t) ->
      if o.inv_seq >= o.resp_seq then
        report ~op_id:o.id "invocation event does not precede response event";
      List.iter
        (fun seq ->
          let key = (o.proc, seq) in
          if Hashtbl.mem seen_events key then
            report ~op_id:o.id
              (Printf.sprintf "duplicate event sequence number %d on process %d"
                 seq o.proc)
          else Hashtbl.add seen_events key ())
        [ o.inv_seq; o.resp_seq ])
    t.ops;
  (* 2. at most one pending invocation per (process, object) at a time *)
  let object_of (o : Op.t) =
    match o.kind with
    | Op.Read { loc; _ } | Op.Write { loc; _ } | Op.Decrement { loc; _ }
    | Op.Await { loc; _ } ->
      Some ("loc:" ^ loc)
    | Op.Read_lock l | Op.Read_unlock l | Op.Write_lock l | Op.Write_unlock l ->
      Some ("lock:" ^ l)
    | Op.Barrier _ | Op.Barrier_group _ -> None
  in
  Array.iter
    (fun (o1 : Op.t) ->
      Array.iter
        (fun (o2 : Op.t) ->
          if o1.id < o2.id && o1.proc = o2.proc then
            match object_of o1, object_of o2 with
            | Some obj1, Some obj2 when obj1 = obj2 ->
              (* overlapping executions on the same object *)
              let overlap =
                not (o1.resp_seq < o2.inv_seq || o2.resp_seq < o1.inv_seq)
              in
              if overlap then
                report ~op_id:o2.id
                  (Printf.sprintf
                     "two pending invocations on %s by process %d (ops %d, %d)"
                     obj1 o1.proc o1.id o2.id)
            | _ -> ())
        t.ops)
    t.ops;
  (* 3. every unlock has a preceding matching lock by the same process,
     and global lock discipline holds in the manager grant order *)
  let by_lock = Hashtbl.create 8 in
  Array.iter
    (fun (o : Op.t) ->
      match Op.lock_of o with
      | Some l ->
        if o.sync_seq < 0 then
          report ~op_id:o.id "lock operation without a manager grant order";
        let prev = Option.value ~default:[] (Hashtbl.find_opt by_lock l) in
        Hashtbl.replace by_lock l (o :: prev)
      | None -> ())
    t.ops;
  Hashtbl.iter
    (fun lock ops_of_l ->
      let sorted =
        List.sort
          (fun (a : Op.t) (b : Op.t) -> compare a.sync_seq b.sync_seq)
          ops_of_l
      in
      let writer = ref None in
      let readers = Hashtbl.create 4 in
      List.iter
        (fun (o : Op.t) ->
          match o.kind with
          | Op.Write_lock _ ->
            if !writer <> None || Hashtbl.length readers > 0 then
              report ~op_id:o.id
                (Printf.sprintf "write lock %s granted while held" lock);
            writer := Some o.proc
          | Op.Write_unlock _ ->
            if !writer <> Some o.proc then
              report ~op_id:o.id
                (Printf.sprintf "write unlock of %s without matching lock" lock);
            writer := None
          | Op.Read_lock _ ->
            if !writer <> None then
              report ~op_id:o.id
                (Printf.sprintf "read lock %s granted while write-held" lock);
            Hashtbl.replace readers o.proc
              (1 + Option.value ~default:0 (Hashtbl.find_opt readers o.proc))
          | Op.Read_unlock _ -> (
            match Hashtbl.find_opt readers o.proc with
            | Some 1 -> Hashtbl.remove readers o.proc
            | Some k -> Hashtbl.replace readers o.proc (k - 1)
            | None ->
              report ~op_id:o.id
                (Printf.sprintf "read unlock of %s without matching lock" lock))
          | _ -> ())
        sorted)
    by_lock;
  (* 4. barrier operations are totally ordered w.r.t. all operations of
     their process *)
  let po = program_order t in
  Array.iter
    (fun (b : Op.t) ->
      match b.kind with
      | Op.Barrier _ | Op.Barrier_group _ ->
        Array.iter
          (fun (o : Op.t) ->
            if o.proc = b.proc && o.id <> b.id then
              if
                (not (Relation.mem po o.id b.id))
                && not (Relation.mem po b.id o.id)
              then
                report ~op_id:b.id
                  (Printf.sprintf "barrier op %d overlaps op %d of process %d"
                     b.id o.id b.proc))
          t.ops
      | _ -> ())
    t.ops;
  (* unique-writes assumption *)
  Hashtbl.iter
    (fun (loc, v) ids ->
      match ids with
      | [] | [ _ ] -> ()
      | _ ->
        report
          (Printf.sprintf "value %d written to %s by %d distinct operations" v
             loc (List.length ids)))
    t.writers;
  List.rev !violations

let is_well_formed t = well_formedness_violations t = []

(* ------------------------------------------------------------------ *)
(* Lock and barrier context                                            *)
(* ------------------------------------------------------------------ *)

(* Each process's operations in invocation order. Equal invocation
   numbers put the larger id first, as a stable sort of the operations
   in descending id order leaves them. *)
let invocation_order t =
  let by_proc = Array.make t.procs [] in
  for id = length t - 1 downto 0 do
    let o = t.ops.(id) in
    by_proc.(o.proc) <- o :: by_proc.(o.proc)
  done;
  Array.map
    (fun ops ->
      let a = Array.of_list ops in
      sort_unless_sorted
        (fun (x : Op.t) (y : Op.t) ->
          if x.inv_seq <> y.inv_seq then Int.compare x.inv_seq y.inv_seq
          else Int.compare y.id x.id)
        a;
      a)
    by_proc

(* a location's lockset while the walk runs *)
type cell = {
  mutable accs : int list;
  mutable st : eraser;
  mutable cands : Op.lock_name list;
  mutable first_empty : int option;
}

let compute_walk t =
  let held = Array.make (length t) [] and phase = Array.make (length t) 0 in
  let held_at_end = Array.make t.procs [] in
  let cells = Hashtbl.create 64 and awaited = Hashtbl.create 8 in
  (* one access's Eraser step and candidate refinement: a write needs
     the lock in write mode, a read either mode *)
  let access (o : Op.t) loc now =
    let write = Op.is_write_like o in
    let sufficient a = a.mode = Mode_write || not write in
    match Hashtbl.find_opt cells loc with
    | None ->
      let cands = List.filter_map (fun a -> if sufficient a then Some a.lock else None) now in
      let first_empty = if cands = [] then Some o.id else None in
      Hashtbl.add cells loc { accs = [ o.proc ]; st = Exclusive; cands; first_empty }
    | Some c ->
      (c.st <-
         (match c.st with
         | Exclusive when List.mem o.proc c.accs -> Exclusive (* its first accessor *)
         | Exclusive | Shared -> if write then Shared_modified else Shared
         | Shared_modified -> Shared_modified));
      if not (List.mem o.proc c.accs) then c.accs <- o.proc :: c.accs;
      let covers l = List.exists (fun a -> a.lock = l && sufficient a) now in
      if not (List.for_all covers c.cands) then begin
        c.cands <- List.filter covers c.cands;
        if c.cands = [] then c.first_empty <- Some o.id
      end
  in
  Array.iteri
    (fun p ops ->
      (* lock -> its acquisitions, innermost first; [now] lists the
         innermost ones in the table's order *)
      let stacks = Hashtbl.create 4 and now = ref [] and bars = ref 0 in
      let stack lock = Option.value ~default:[] (Hashtbl.find_opt stacks lock) in
      let set lock s =
        if s = [] then Hashtbl.remove stacks lock else Hashtbl.replace stacks lock s;
        now := Hashtbl.fold (fun _ s acc -> List.hd s :: acc) stacks []
      in
      Array.iter
        (fun (o : Op.t) ->
          held.(o.id) <- !now;
          phase.(o.id) <- !bars;
          match o.kind with
          | Op.Read_lock lock ->
            set lock ({ lock; mode = Mode_read; acquired_by = o.id } :: stack lock)
          | Op.Write_lock lock ->
            set lock ({ lock; mode = Mode_write; acquired_by = o.id } :: stack lock)
          | Op.Read_unlock lock | Op.Write_unlock lock -> (
            match stack lock with [] -> () | _ :: rest -> set lock rest)
          | Op.Barrier _ | Op.Barrier_group _ -> incr bars
          | Op.Await { loc; _ } -> Hashtbl.replace awaited loc ()
          | Op.Read { loc; _ } | Op.Write { loc; _ } | Op.Decrement { loc; _ } -> access o loc !now)
        ops;
      held_at_end.(p) <- Hashtbl.fold (fun _ s acc -> s @ acc) stacks [])
    (invocation_order t);
  let locations = Hashtbl.create (Hashtbl.length cells) in
  Hashtbl.iter
    (fun loc c ->
      Hashtbl.add locations loc
        {
          loc;
          accessors = List.sort Int.compare c.accs;
          state = c.st;
          candidates = List.sort compare c.cands;
          first_unprotected = c.first_empty;
          awaited = Hashtbl.mem awaited loc;
        })
    cells;
  { held; phase; held_at_end; locations }

let walk t = with_memo (fun t -> t.walk_memo) (fun t v -> t.walk_memo <- v) t compute_walk

let pp fmt t =
  Format.fprintf fmt "@[<v>history (%d processes, %d operations):@ " t.procs
    (length t);
  Array.iter (fun o -> Format.fprintf fmt "%a@ " Op.pp o) t.ops;
  Format.fprintf fmt "@]"
