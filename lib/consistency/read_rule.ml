module History = Mc_history.History
module Op = Mc_history.Op
module Relation = Mc_util.Relation

type verdict = Valid | No_matching_write | Overwritten of int

let pp_verdict fmt = function
  | Valid -> Format.pp_print_string fmt "valid"
  | No_matching_write -> Format.pp_print_string fmt "no matching write"
  | Overwritten o -> Format.fprintf fmt "overwritten by op %d" o

(* Values an operation associates with location [loc]: what it writes
   there and what it observes there. *)
let values_at (o : Op.t) loc =
  let add acc = function
    | Some (l, v) when l = loc -> v :: acc
    | Some _ | None -> acc
  in
  add (add [] (Op.writes_value o)) (Op.reads_value o)

let check h rel ~read_id =
  let r = History.op h read_id in
  let loc, value =
    match r.kind with
    | Op.Read { loc; value; _ } -> (loc, value)
    | _ -> invalid_arg "Read_rule.check: not a memory read"
  in
  let ops = History.ops h in
  (* only operations touching [loc] can be interposers; they come in
     ascending id order, so the first one found is the lowest id *)
  let touching = History.ops_at h loc in
  (* [interposed w] finds an operation o(x)u, u <> value, strictly between
     [w] and the read in [rel]. [w = None] stands for the virtual initial
     write, which precedes every operation. Memory reads of other
     processes are not candidates: the per-process relations of
     Definitions 2 and 3 exclude them. *)
  let interposed w =
    let candidate id =
      let o = ops.(id) in
      id <> read_id
      && (match w with None -> true | Some w_id -> w_id <> id && Relation.mem rel w_id id)
      && (o.proc = r.proc || not (Op.is_memory_read o))
      && Relation.mem rel id read_id
      && List.exists (fun u -> u <> value) (values_at o loc)
    in
    List.find_opt candidate touching
  in
  let candidate_writers =
    List.filter
      (fun w -> Relation.mem rel w read_id)
      (History.writers_of h loc value)
  in
  let try_writer w = match interposed (Some w) with None -> `Ok | Some o -> `Bad o in
  let rec first_valid = function
    | [] -> None
    | w :: rest -> (
      match try_writer w with `Ok -> Some w | `Bad _ -> first_valid rest)
  in
  match first_valid candidate_writers with
  | Some _ -> Valid
  | None -> (
    if value = History.initial_value h loc then
      (* virtual initial write *)
      match interposed None with None -> Valid | Some o -> Overwritten o
    else
      match candidate_writers with
      | [] -> No_matching_write
      | w :: _ -> (
        match try_writer w with
        | `Bad o -> Overwritten o
        | `Ok -> assert false))
