module Relation = Mc_util.Relation

let column_width = 22

(* The DSM runtime records written values as unique tags of the form
   ((writer + 1) << 40) | counter; render those compactly as p<w>#<k>
   so diagrams stay readable. *)
let pp_value v =
  if v >= 1 lsl 40 then
    Printf.sprintf "p%d#%d" ((v lsr 40) - 1) (v land ((1 lsl 40) - 1))
  else string_of_int v

let op_label (kind : Op.kind) =
  match kind with
  | Op.Read { loc; label; value } ->
    let l =
      match label with
      | Op.PRAM -> "p"
      | Op.Causal -> "c"
      | Op.Group members ->
        "g{" ^ String.concat "," (List.map string_of_int members) ^ "}"
    in
    Printf.sprintf "r%s(%s)%s" l loc (pp_value value)
  | Op.Write { loc; value } -> Printf.sprintf "w(%s)%s" loc (pp_value value)
  | Op.Await { loc; value } -> Printf.sprintf "await(%s=%s)" loc (pp_value value)
  | kind -> Format.asprintf "%a" Op.pp_kind kind

let space_time h =
  let procs = History.procs h in
  let buf = Buffer.create 1024 in
  let pad s =
    let n = String.length s in
    if n >= column_width then String.sub s 0 column_width
    else s ^ String.make (column_width - n) ' '
  in
  for p = 0 to procs - 1 do
    Buffer.add_string buf (pad (Printf.sprintf "p%d" p))
  done;
  Buffer.add_char buf '\n';
  for _ = 0 to procs - 1 do
    Buffer.add_string buf (pad (String.make (column_width - 2) '-'))
  done;
  Buffer.add_char buf '\n';
  (* one output row per operation, ordered by a topological order of the
     causality relation so the vertical axis respects causality *)
  let order =
    match History.causality_is_acyclic h with
    | true -> Relation.topological_order (History.causality_base h)
    | false ->
      List.init (History.length h) Fun.id
  in
  List.iter
    (fun id ->
      let op = History.op h id in
      for p = 0 to procs - 1 do
        if p = op.Op.proc then Buffer.add_string buf (pad (op_label op.Op.kind))
        else Buffer.add_string buf (pad "")
      done;
      Buffer.add_char buf '\n')
    order;
  Buffer.contents buf

(* A drawn edge comes from the covering: program order, reads-from, or a
   synchronization covering edge, named by its endpoints — every barrier
   covering edge has a barrier endpoint and the rest join lock
   operations; an await's covering edge is also a reads-from edge. *)
let edge_style h a b =
  let is_barrier id =
    match (History.op h id).Op.kind with
    | Op.Barrier _ | Op.Barrier_group _ -> true
    | _ -> false
  in
  if Relation.mem (History.program_order h) a b then "color=black"
  else if Relation.mem (History.reads_from h) a b then "color=blue, label=\"rf\""
  else if is_barrier a || is_barrier b then "color=darkgreen, label=\"bar\""
  else "color=red, label=\"lock\""

let dot h =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "digraph history {\n  rankdir=TB;\n  node [shape=box, fontname=\"monospace\"];\n";
  for p = 0 to History.procs h - 1 do
    Buffer.add_string buf (Printf.sprintf "  subgraph cluster_p%d {\n    label=\"p%d\";\n" p p);
    Array.iter
      (fun (o : Op.t) ->
        if o.proc = p then
          Buffer.add_string buf
            (Printf.sprintf "    n%d [label=\"%s\"];\n" o.id
               (String.map (fun c -> if c = '"' then '\'' else c) (op_label o.kind))))
      (History.ops h);
    Buffer.add_string buf "  }\n"
  done;
  (* draw the transitive reduction so the picture stays readable *)
  let base = History.causality_base h in
  let edges =
    if Relation.is_acyclic base then Relation.transitive_reduction base else base
  in
  Relation.fold edges
    (fun () a b ->
      Buffer.add_string buf
        (Printf.sprintf "  n%d -> n%d [%s];\n" a b (edge_style h a b)))
    ();
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let summary h =
  let buf = Buffer.create 256 in
  let kinds = Mc_util.Stats.Counters.create () in
  let per_proc = Array.make (History.procs h) 0 in
  Array.iter
    (fun (o : Op.t) ->
      per_proc.(o.proc) <- per_proc.(o.proc) + 1;
      let name =
        match o.kind with
        | Op.Read _ -> "read"
        | Op.Write _ -> "write"
        | Op.Decrement _ -> "decrement"
        | Op.Read_lock _ | Op.Write_lock _ -> "lock"
        | Op.Read_unlock _ | Op.Write_unlock _ -> "unlock"
        | Op.Barrier _ | Op.Barrier_group _ -> "barrier"
        | Op.Await _ -> "await"
      in
      Mc_util.Stats.Counters.incr kinds name)
    (History.ops h);
  Buffer.add_string buf
    (Printf.sprintf "%d operations over %d processes\n" (History.length h)
       (History.procs h));
  List.iter
    (fun (name, k) -> Buffer.add_string buf (Printf.sprintf "  %-10s %d\n" name k))
    (Mc_util.Stats.Counters.to_list kinds);
  Array.iteri
    (fun p k -> Buffer.add_string buf (Printf.sprintf "  p%-9d %d\n" p k))
    per_proc;
  Buffer.add_string buf
    (Printf.sprintf "  causality edges: %d (base %d)\n"
       (Relation.cardinal (History.causality h))
       (Relation.cardinal (History.causality_base h)));
  Buffer.contents buf
