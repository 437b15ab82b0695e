module History = Mc_history.History
module Op = Mc_history.Op
module Relation = Mc_util.Relation

type answer = Consistent | Inconsistent | Unknown

(* ------------------------------------------------------------------ *)
(* Replay machine                                                      *)
(* ------------------------------------------------------------------ *)

type machine = {
  memory : (Op.location, Op.value) Hashtbl.t;
  write_holder : (Op.lock_name, int) Hashtbl.t; (* lock -> holder proc *)
  read_holders : (Op.lock_name, int list) Hashtbl.t; (* lock -> reader procs *)
}

let machine_create () =
  {
    memory = Hashtbl.create 16;
    write_holder = Hashtbl.create 4;
    read_holders = Hashtbl.create 4;
  }

let mem_get m loc = Option.value ~default:0 (Hashtbl.find_opt m.memory loc)

(* [apply m op] steps the machine; returns [Error reason] if the operation
   is not enabled in the current state. Used both for full-order replay
   and incrementally during the search (with [undo] to backtrack). *)
type undo =
  | No_undo
  | Restore_value of Op.location * Op.value option
  | Restore_write_lock of Op.lock_name * int option
  | Restore_read_holders of Op.lock_name * int list

let apply ?(check_observed = true) m (op : Op.t) =
  let read_ok loc value what =
    let current = mem_get m loc in
    if current = value then Ok No_undo
    else
      Error
        (Printf.sprintf "%s %d: %s holds %d, operation expects %d" what op.id
           loc current value)
  in
  match op.kind with
  | Op.Read { loc; value; _ } -> read_ok loc value "read"
  | Op.Await { loc; value } -> read_ok loc value "await"
  | Op.Write { loc; value } ->
    let prev = Hashtbl.find_opt m.memory loc in
    Hashtbl.replace m.memory loc value;
    Ok (Restore_value (loc, prev))
  | Op.Decrement { loc; amount; observed } ->
    let current = mem_get m loc in
    if check_observed && current <> observed then
      Error
        (Printf.sprintf "decrement %d: %s holds %d, recorded pre-value %d"
           op.id loc current observed)
    else begin
      let prev = Hashtbl.find_opt m.memory loc in
      Hashtbl.replace m.memory loc (current - amount);
      Ok (Restore_value (loc, prev))
    end
  | Op.Write_lock l ->
    if Hashtbl.mem m.write_holder l then
      Error (Printf.sprintf "write lock %d: %s already write-held" op.id l)
    else if Option.value ~default:[] (Hashtbl.find_opt m.read_holders l) <> []
    then Error (Printf.sprintf "write lock %d: %s read-held" op.id l)
    else begin
      Hashtbl.replace m.write_holder l op.proc;
      Ok (Restore_write_lock (l, None))
    end
  | Op.Write_unlock l -> (
    match Hashtbl.find_opt m.write_holder l with
    | Some p when p = op.proc ->
      Hashtbl.remove m.write_holder l;
      Ok (Restore_write_lock (l, Some p))
    | Some _ | None ->
      Error (Printf.sprintf "write unlock %d: %s not held by process %d" op.id l op.proc))
  | Op.Read_lock l ->
    if Hashtbl.mem m.write_holder l then
      Error (Printf.sprintf "read lock %d: %s write-held" op.id l)
    else begin
      let holders = Option.value ~default:[] (Hashtbl.find_opt m.read_holders l) in
      Hashtbl.replace m.read_holders l (op.proc :: holders);
      Ok (Restore_read_holders (l, holders))
    end
  | Op.Read_unlock l -> (
    let holders = Option.value ~default:[] (Hashtbl.find_opt m.read_holders l) in
    if List.mem op.proc holders then begin
      let rec remove_one = function
        | [] -> []
        | p :: rest -> if p = op.proc then rest else p :: remove_one rest
      in
      Hashtbl.replace m.read_holders l (remove_one holders);
      Ok (Restore_read_holders (l, holders))
    end
    else
      Error (Printf.sprintf "read unlock %d: %s not read-held by process %d" op.id l op.proc))
  | Op.Barrier _ | Op.Barrier_group _ -> Ok No_undo

let rollback m = function
  | No_undo -> ()
  | Restore_value (loc, prev) -> (
    match prev with
    | Some v -> Hashtbl.replace m.memory loc v
    | None -> Hashtbl.remove m.memory loc)
  | Restore_write_lock (l, prev) -> (
    match prev with
    | Some p -> Hashtbl.replace m.write_holder l p
    | None -> Hashtbl.remove m.write_holder l)
  | Restore_read_holders (l, prev) -> Hashtbl.replace m.read_holders l prev

let replay ?check_observed h order =
  let n = History.length h in
  if List.length order <> n then Error "order is not a permutation: wrong length"
  else begin
    let seen = Array.make n false in
    let m = machine_create () in
    let rec go = function
      | [] -> Ok ()
      | id :: rest ->
        if id < 0 || id >= n then Error (Printf.sprintf "op id %d out of range" id)
        else if seen.(id) then Error (Printf.sprintf "op id %d repeated" id)
        else begin
          seen.(id) <- true;
          match apply ?check_observed m (History.op h id) with
          | Ok _ -> go rest
          | Error e -> Error e
        end
    in
    go order
  end

let respects_causality h order =
  let position = Hashtbl.create 64 in
  List.iteri (fun i id -> Hashtbl.replace position id i) order;
  let causality = History.causality h in
  let ok = ref (List.length order = History.length h) in
  Relation.fold causality
    (fun () a b ->
      match Hashtbl.find_opt position a, Hashtbl.find_opt position b with
      | Some pa, Some pb -> if pa >= pb then ok := false
      | _ -> ok := false)
    ();
  !ok

(* ------------------------------------------------------------------ *)
(* Search                                                              *)
(* ------------------------------------------------------------------ *)

(* Memoized backtracking over linear extensions of the causality base
   relation (a total order extends the closure iff it extends the base).
   The memo key includes the scheduled set and the memory valuation,
   because the same set scheduled in different orders can leave different
   last writers. *)

exception Found of int list

let search ?(check_observed = true) ?(max_states = 200_000) h =
  let n = History.length h in
  if not (History.causality_is_acyclic h) then (None, Inconsistent)
  else begin
    let base = History.causality_base h in
    let preds = Array.init n (fun i -> Relation.predecessors base i) in
    let indeg = Array.make n 0 in
    Array.iteri (fun i ps -> indeg.(i) <- List.length ps) preds;
    let succs = Array.init n (fun i -> Relation.successors base i) in
    let scheduled = Array.make n false in
    let m = machine_create () in
    let visited = Hashtbl.create 4096 in
    let states = ref 0 in
    let exhausted = ref false in
    let key () =
      let buf = Buffer.create (n + 32) in
      Array.iter (fun b -> Buffer.add_char buf (if b then '1' else '0')) scheduled;
      let cells =
        Hashtbl.fold (fun loc v acc -> (loc, v) :: acc) m.memory []
        |> List.sort compare
      in
      List.iter (fun (loc, v) -> Buffer.add_string buf (Printf.sprintf "|%s=%d" loc v)) cells;
      Buffer.contents buf
    in
    let rec dfs depth prefix =
      if depth = n then raise (Found (List.rev prefix));
      let k = key () in
      if not (Hashtbl.mem visited k) then begin
        Hashtbl.add visited k ();
        incr states;
        if !states > max_states then exhausted := true
        else
          for id = 0 to n - 1 do
            if (not !exhausted) && (not scheduled.(id)) && indeg.(id) = 0 then begin
              match apply ~check_observed m (History.op h id) with
              | Ok undo ->
                scheduled.(id) <- true;
                List.iter (fun s -> indeg.(s) <- indeg.(s) - 1) succs.(id);
                dfs (depth + 1) (id :: prefix);
                List.iter (fun s -> indeg.(s) <- indeg.(s) + 1) succs.(id);
                scheduled.(id) <- false;
                rollback m undo
              | Error _ -> ()
            end
          done
      end
    in
    match dfs 0 [] with
    | () -> (None, if !exhausted then Unknown else Inconsistent)
    | exception Found order -> (Some order, Consistent)
  end

let witness ?check_observed ?max_states h = search ?check_observed ?max_states h

let is_sequentially_consistent ?check_observed ?max_states h =
  snd (search ?check_observed ?max_states h)
