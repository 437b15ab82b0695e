module History = Mc_history.History
module Op = Mc_history.Op

let is_shared (l : History.lockset) = match l.accessors with _ :: _ :: _ -> true | _ -> false

let shared h =
  let locations = (History.walk h).History.locations in
  fun loc -> match Hashtbl.find_opt locations loc with Some l -> is_shared l | None -> false

let locksets h =
  Hashtbl.fold (fun _ l acc -> if is_shared l then l :: acc else acc) (History.walk h).locations []
  |> List.sort (fun (a : History.lockset) b -> compare a.loc b.loc)

let is_entry_consistent h =
  Hashtbl.fold
    (fun _ (l : History.lockset) ok -> ok && ((not (is_shared l)) || l.candidates <> []))
    (History.walk h).locations true

type phase_violation = {
  op_id : int;
  loc : Op.location;
  phase : int;
  reason : string;
}

let check_pram_consistent h =
  let phase_of = (History.walk h).History.phase and shared = shared h in
  let violations = ref [] in
  let report op_id loc phase reason = violations := { op_id; loc; phase; reason } :: !violations in
  (* group shared-variable accesses by (loc, phase) *)
  let groups : (Op.location * int, Op.t list) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (fun (o : Op.t) ->
      match o.kind with
      | (Op.Read { loc; _ } | Op.Write { loc; _ } | Op.Decrement { loc; _ }) when shared loc ->
        let key = (loc, phase_of.(o.id)) in
        let prev = Option.value ~default:[] (Hashtbl.find_opt groups key) in
        Hashtbl.replace groups key (o :: prev)
      | _ -> ())
    (History.ops h);
  Hashtbl.iter
    (fun (loc, phase) ops ->
      let writes = List.filter Op.is_write_like ops in
      let reads = List.filter (fun o -> not (Op.is_write_like o)) ops in
      (match writes with
      | [] | [ _ ] -> ()
      | w :: _ ->
        report w.Op.id loc phase "variable updated more than once in a phase");
      match writes with
      | [ (w : Op.t) ] ->
        List.iter
          (fun (r : Op.t) ->
            if r.proc <> w.proc then
              report r.id loc phase
                "read by another process in the phase the variable is written"
            else if r.inv_seq < w.resp_seq then
              report r.id loc phase "read precedes the same-phase update")
          reads
      | _ -> ())
    groups;
  List.sort compare !violations

let is_pram_consistent h = check_pram_consistent h = []
