module History = Mc_history.History
module Op = Mc_history.Op
module Commute = Mc_consistency.Commute

type race = { first : int; second : int; subject : string }

type report = {
  races : race list;
  locksets : Lockset.info list;
  hb_chains : int;
}

let detect ?shared h =
  let hb = Hb.of_history h in
  let locksets = Lockset.analyze ?shared h in
  let ops = History.ops h in
  let procs = History.procs h in
  (* The lockset screen argues "every conflicting pair on a protected
     location is lock-ordered"; that argument needs each process's
     operations to be totally ordered (one chain per process). With
     overlapping fibers, fall back to checking every pair. *)
  let can_screen = Hb.chains hb = procs in
  let protected_loc =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (i : Lockset.info) ->
        if Lockset.is_protected i then Hashtbl.replace tbl i.Lockset.loc ())
      locksets;
    fun loc -> can_screen && Hashtbl.mem tbl loc
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
      && not (Hb.related hb i j)
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
  { races; locksets; hb_chains = Hb.chains hb }

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
