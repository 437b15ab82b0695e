module History = Mc_history.History
module Op = Mc_history.Op
module Relation = Mc_util.Relation

(* Memory footprint of an operation, for the syntactic commutativity
   rules: what location it observes and what location it mutates. *)
type footprint = {
  observes : Op.location option;
  mutates : Op.location option;
  counter_op : bool; (* decrements commute with each other *)
}

let footprint (o : Op.t) =
  match o.kind with
  | Op.Read { loc; _ } -> Some { observes = Some loc; mutates = None; counter_op = false }
  | Op.Await { loc; _ } -> Some { observes = Some loc; mutates = None; counter_op = false }
  | Op.Write { loc; _ } -> Some { observes = None; mutates = Some loc; counter_op = false }
  | Op.Decrement { loc; _ } ->
    Some { observes = None; mutates = Some loc; counter_op = true }
  | Op.Read_lock _ | Op.Read_unlock _ | Op.Write_lock _ | Op.Write_unlock _
  | Op.Barrier _ | Op.Barrier_group _ ->
    None

let commute (a : Op.t) (b : Op.t) =
  match a.kind, b.kind with
  (* lock operations on the same object *)
  | (Op.Write_lock la | Op.Read_lock la), (Op.Write_lock lb | Op.Read_lock lb)
    when la = lb -> (
    (* two read locks commute; any pair involving a write lock can be
       simultaneously enabled (lock free) but not sequenced both ways *)
    match a.kind, b.kind with
    | Op.Read_lock _, Op.Read_lock _ -> true
    | _ -> false)
  | (Op.Write_unlock la | Op.Read_unlock la), (Op.Write_unlock lb | Op.Read_unlock lb)
    when la = lb -> (
    (* write unlocks of the same lock are never enabled simultaneously;
       read unlocks by different holders commute *)
    match a.kind, b.kind with
    | Op.Write_unlock _, Op.Write_unlock _ -> true (* vacuous *)
    | _ -> true)
  | (Op.Write_lock la | Op.Read_lock la), (Op.Write_unlock lb | Op.Read_unlock lb)
  | (Op.Write_unlock la | Op.Read_unlock la), (Op.Write_lock lb | Op.Read_lock lb)
    when la = lb -> (
    (* lock vs unlock on the same object: a write lock and any unlock are
       never simultaneously enabled (vacuously commute); a read lock and a
       read unlock by another process commute; a read lock and a write
       unlock are never simultaneously enabled *)
    match a.kind, b.kind with
    | Op.Read_lock _, Op.Read_unlock _ | Op.Read_unlock _, Op.Read_lock _ -> true
    | _ -> true)
  | _ -> (
    match footprint a, footprint b with
    | None, _ | _, None -> true (* barriers and cross-object lock ops *)
    | Some fa, Some fb ->
      let touches f loc =
        f.observes = Some loc || f.mutates = Some loc
      in
      let conflict =
        match fa.mutates, fb.mutates with
        | Some la, _ when touches fb la ->
          (* both decrements on the same counter commute *)
          not (fa.counter_op && fb.counter_op && fb.mutates = Some la)
        | _, Some lb when touches fa lb ->
          not (fa.counter_op && fb.counter_op && fa.mutates = Some lb)
        | _ -> false
      in
      not conflict)

type report = {
  non_commuting_pairs : (int * int) list;
  non_causal_reads : Lattice.failure list;
}

(* Pairs are kept order-canonical (smaller id first) and duplicate-free so
   reports are deterministic across runs. *)
let canonical_pairs pairs =
  List.sort_uniq compare
    (List.map (fun (i, j) -> if i <= j then (i, j) else (j, i)) pairs)

let theorem1_report h =
  let causality = History.causality h in
  let ops = History.ops h in
  let n = Array.length ops in
  let pairs = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let unrelated =
        (not (Relation.mem causality i j)) && not (Relation.mem causality j i)
      in
      if unrelated && not (commute ops.(i) ops.(j)) then
        pairs := (i, j) :: !pairs
    done
  done;
  {
    non_commuting_pairs = canonical_pairs !pairs;
    non_causal_reads = Lattice.failures h Lattice.Causal;
  }

let theorem1_holds h =
  let r = theorem1_report h in
  r.non_commuting_pairs = [] && r.non_causal_reads = []
