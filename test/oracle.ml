(* Test-only oracles, built the plain way so they share no loop with the
   code under test:

   - [warshall]: transitive closure by Warshall's algorithm over packed
     bit rows of its own, read from and written back to a [Relation]
     with [Relation.mem]/[Relation.add] only;
   - [program_order]: same process, response before invocation, tested
     pair by pair. [History] builds it from suffix rows;
   - Section 3's definitional synchronization orders — the lock order
     over epochs grouped here, the all-pairs barrier order and the await
     order — and [causality], the Warshall closure of program order,
     reads-from and those orders. [History] and [Stream] build only a
     covering of these orders; its closure must equal [causality];
   - the per-reader relations of Definitions 2 and 3 and Section 3.2
     ([causal_relation], [pram_relation], [group_relation]), memoized on
     the history. [Lattice]'s causal, PRAM and group points must give
     the same verdicts;
   - [Discipline]: Section 4's program classes, the Eraser lockset and
     the lint rules L001, L002, L003 and L006, each sorting every process
     and scanning its held locks itself. [History.walk] does that once
     for all of them, and its readers must agree;
   - [advise]: the label advisor read by read, from per-read verdicts
     over [Lattice]'s closures and [Discipline]'s classifiers.
     [Advisor.advise] reads whole failure sets, which [Lattice.failures]
     replays [Online] for at streamable points, and the walk, so this
     keeps the advisor differential independent;
   - [Lattice]: a model's relation rebuilt pair by pair from the
     history's derived relations, closed by Warshall, restricted for
     each reader, and checked by the read rule scanning every operation
     of the history. The checker's SCC closure, its closures shared
     across readers and its per-location read scan must all agree with
     it;
   - [Delivery]: a replica's causal delivery as a pending list per view,
     rescanned in full after every receipt. The replica's per-writer
     queues must apply the same updates in the same order;
   - [Barrier_counts]: Section 6's barrier count vectors under a
     placement as a dense matrix of per-(writer, shard) write counts,
     one row recorded per arrival. The combining tree's sparse release
     entries must equal it restricted to its nonzero entries. *)

module Relation = Mc_util.Relation
module History = Mc_history.History
module Op = Mc_history.Op

let to_matrix r =
  let n = Relation.size r in
  Array.init n (fun i -> Array.init n (fun j -> Relation.mem r i j))

let of_matrix m =
  let r = Relation.create (Array.length m) in
  Array.iteri (fun i row -> Array.iteri (fun j b -> if b then Relation.add r i j) row) m;
  r

(* Warshall's algorithm over packed bit rows: if i reaches k, OR k's row
   into i's *)
let warshall_matrix m =
  let n = Array.length m in
  let words = (n + 61) / 62 in
  let rows =
    Array.map
      (fun row ->
        let r = Array.make words 0 in
        Array.iteri (fun j b -> if b then r.(j / 62) <- r.(j / 62) lor (1 lsl (j mod 62))) row;
        r)
      m
  in
  for k = 0 to n - 1 do
    let kw = k / 62 and kb = 1 lsl (k mod 62) in
    for i = 0 to n - 1 do
      if i <> k && rows.(i).(kw) land kb <> 0 then
        for w = 0 to words - 1 do
          rows.(i).(w) <- rows.(i).(w) lor rows.(k).(w)
        done
    done
  done;
  Array.map (fun r -> Array.init n (fun j -> r.(j / 62) land (1 lsl (j mod 62)) <> 0)) rows

let warshall r = of_matrix (warshall_matrix (to_matrix r))

(* ------------------------------------------------------------------ *)
(* Section 3's orders, from their definitions                          *)
(* ------------------------------------------------------------------ *)

(* [→]: same process, the response of the first before the invocation
   of the second *)
let program_order h =
  let ops = History.ops h in
  let r = Relation.create (History.length h) in
  Array.iter
    (fun (a : Op.t) ->
      Array.iter
        (fun (b : Op.t) ->
          if a.proc = b.proc && a.resp_seq < b.inv_seq then Relation.add r a.id b.id)
        ops)
    ops;
  r

(* [⤇lock]: per lock, in grant order, each operation gets an epoch: a
   write lock opens one and its unlock joins it when granted right after
   it; a run of read lock operations shares one. A write unlock not
   granted right after its process's write lock belongs to no epoch.
   Every operation of an earlier epoch precedes every operation of a
   later one; inside an epoch a lock precedes its unlock. *)
let lock_order h =
  let ops = History.ops h in
  let r = Relation.create (History.length h) in
  let locks = List.sort_uniq compare (List.filter_map Op.lock_of (Array.to_list ops)) in
  List.iter
    (fun l ->
      let granted =
        Array.of_list
          (List.sort
             (fun (a : Op.t) (b : Op.t) -> compare a.sync_seq b.sync_seq)
             (List.filter (fun o -> Op.lock_of o = Some l) (Array.to_list ops)))
      in
      let k = Array.length granted in
      let is_read (o : Op.t) =
        match o.kind with Op.Read_lock _ | Op.Read_unlock _ -> true | _ -> false
      in
      let epoch = Array.make k (-1) in
      let next = ref 0 in
      let last = ref (-1) (* position of the last operation with an epoch *) in
      for i = 0 to k - 1 do
        let o = granted.(i) in
        match o.kind with
        | Op.Write_lock _ ->
          epoch.(i) <- !next;
          incr next;
          last := i
        | Op.Write_unlock _ ->
          if i > 0
             && granted.(i - 1).proc = o.proc
             && (match granted.(i - 1).kind with Op.Write_lock _ -> true | _ -> false)
          then begin
            epoch.(i) <- epoch.(i - 1);
            last := i
          end
        | _ ->
          if !last >= 0 && is_read granted.(!last) then epoch.(i) <- epoch.(!last)
          else begin
            epoch.(i) <- !next;
            incr next
          end;
          last := i
      done;
      for i = 0 to k - 1 do
        for j = 0 to k - 1 do
          let a = granted.(i) and b = granted.(j) in
          if epoch.(i) >= 0 && epoch.(j) > epoch.(i) then Relation.add r a.id b.id
          else if epoch.(i) >= 0 && epoch.(i) = epoch.(j) && i < j && a.proc = b.proc then
            (* the unlock matches the process's latest lock before it *)
            match (a.kind, b.kind) with
            | Op.Write_lock _, Op.Write_unlock _ -> Relation.add r a.id b.id
            | Op.Read_lock _, Op.Read_unlock _ ->
              let between = ref false in
              for m = i + 1 to j - 1 do
                if granted.(m).proc = a.proc && is_read granted.(m) then between := true
              done;
              if not !between then Relation.add r a.id b.id
            | _ -> ()
        done
      done)
    locks;
  r

(* [⤇bar]: an operation before a barrier of episode k on its process
   precedes every barrier of the episode, and every barrier of the
   episode precedes an operation after it. An episode is a plain
   barrier index, or a group barrier's member set and index. *)
let barrier_order h =
  let ops = History.ops h in
  let po = program_order h in
  let r = Relation.create (History.length h) in
  let episode (o : Op.t) =
    match o.kind with
    | Op.Barrier k -> Some ([], k)
    | Op.Barrier_group { episode; members } -> Some (List.sort_uniq compare members, episode)
    | _ -> None
  in
  Array.iter
    (fun (b : Op.t) ->
      match episode b with
      | None -> ()
      | Some e ->
        Array.iter
          (fun (b' : Op.t) ->
            if episode b' = Some e then
              Array.iter
                (fun (o : Op.t) ->
                  if o.id <> b'.id then begin
                    if Relation.mem po o.id b.id then Relation.add r o.id b'.id;
                    if Relation.mem po b.id o.id then Relation.add r b'.id o.id
                  end)
                ops)
          ops)
    ops;
  r

(* [⤇await]: the write of the awaited value precedes the await *)
let await_order h =
  let ops = History.ops h in
  let r = Relation.create (History.length h) in
  Array.iter
    (fun (a : Op.t) ->
      match a.kind with
      | Op.Await { loc; value } ->
        Array.iter
          (fun (w : Op.t) ->
            if w.id <> a.id && Op.writes_value w = Some (loc, value) then
              Relation.add r w.id a.id)
          ops
      | _ -> ())
    ops;
  r

(* [⇝]: the closure of program order, reads-from and [⤇] *)
let causality h =
  History.cached_relation h "oracle.causality" (fun () ->
      warshall
        (List.fold_left Relation.union (program_order h)
           [ History.reads_from h; lock_order h; barrier_order h; await_order h ]))

(* ------------------------------------------------------------------ *)
(* Per-reader relations (Definitions 2 and 3, Section 3.2)             *)
(* ------------------------------------------------------------------ *)

(* [⇝i,C]: causality restricted to the operations of [i] plus every
   write-like and synchronization operation *)
let causal_relation h i =
  History.cached_relation h (Printf.sprintf "oracle.causal.%d" i) (fun () ->
      Relation.restrict (causality h) (fun id ->
          let o = History.op h id in
          o.proc = i || Op.is_write_like o || Op.is_sync o))

(* the closure of program order plus the reduced sync and reads-from
   edges touching [in_group], without other processes' memory reads *)
let scoped_relation h ~reader ~in_group =
  let touching rel =
    let out = Relation.create (History.length h) in
    Relation.fold rel
      (fun () a b ->
        if in_group (History.op h a).proc || in_group (History.op h b).proc then
          Relation.add out a b)
      ();
    out
  in
  let closure =
    warshall
      (List.fold_left Relation.union (program_order h)
         [ touching (History.sync_order_reduced h); touching (History.reads_from h) ])
  in
  Relation.restrict closure (fun id ->
      let o = History.op h id in
      not (Op.is_memory_read o && o.proc <> reader))

(* [⇝i,P] *)
let pram_relation h i =
  History.cached_relation h (Printf.sprintf "oracle.pram.%d" i) (fun () ->
      scoped_relation h ~reader:i ~in_group:(fun p -> p = i))

(* [⇝i,G]: a singleton group coincides with [pram_relation], the group
   of all processes gives [causal_relation]'s read verdicts *)
let group_relation h ~reader ~group =
  if not (List.mem reader group) then
    invalid_arg "Oracle.group_relation: reader must be a group member";
  List.iter
    (fun m ->
      if m < 0 || m >= History.procs h then
        invalid_arg "Oracle.group_relation: member out of range")
    group;
  let group = List.sort_uniq compare group in
  History.cached_relation h
    (Printf.sprintf "oracle.group.%d.%s" reader
       (String.concat "," (List.map string_of_int group)))
    (fun () -> scoped_relation h ~reader ~in_group:(fun p -> List.mem p group))

module Lattice = struct
  module L = Mc_consistency.Lattice
  module Read_rule = Mc_consistency.Read_rule

  let locs_of (o : Op.t) =
    List.filter_map (Option.map fst) [ Op.writes_value o; Op.reads_value o ]

  let share_loc a b = List.exists (fun l -> List.mem l (locs_of a)) (locs_of b)

  let admits (scope : L.scope) ~reader sp np =
    match scope with
    | L.S_none -> false
    | L.S_reader -> sp = reader || np = reader
    | L.S_group g -> List.mem sp g || List.mem np g
    | L.S_all -> true

  (* one history's derived relations as bool matrices, and the
     restricted relations built so far, per (axiom set, reader) *)
  type t = {
    h : History.t;
    po : bool array array;
    rf : bool array array;
    sync : bool array array;
    memo : (L.axioms * int, bool array array) Hashtbl.t;
  }

  let create h =
    {
      h;
      po = to_matrix (program_order h);
      rf = to_matrix (History.reads_from h);
      sync = to_matrix (History.sync_order_reduced h);
      memo = Hashtbl.create 16;
    }

  (* the axiom-selected edges, as a bool matrix *)
  let edges t (ax : L.axioms) ~reader =
    let n = History.length t.h in
    let ops = History.ops t.h in
    let m = Array.make_matrix n n false in
    let add_filtered src keep =
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if src.(i).(j) && keep ops.(i) ops.(j) then m.(i).(j) <- true
        done
      done
    in
    (match ax.L.po with
    | L.Po_none -> ()
    | L.Po_global -> add_filtered t.po (fun _ _ -> true)
    | L.Po_per_location ->
      add_filtered t.po (fun a b -> Op.is_sync a || Op.is_sync b || share_loc a b)
    | L.Po_session { ryw; mr } ->
      add_filtered t.po (fun a b ->
          a.Op.proc = reader && b.Op.proc = reader && Op.is_memory_read b
          && ((ryw && Op.is_write_like a) || (mr && Op.is_memory_read a))));
    add_filtered t.rf (fun a b -> admits ax.L.wi ~reader a.Op.proc b.Op.proc);
    add_filtered t.sync (fun a b -> admits ax.L.sync ~reader a.Op.proc b.Op.proc);
    (* consecutive elements of an ascending id list *)
    let rec chain = function
      | a :: (b :: _ as rest) ->
        m.(a).(b) <- true;
        chain rest
      | [] | [ _ ] -> ()
    in
    let ids p = List.filter (fun id -> p ops.(id)) (List.init n Fun.id) in
    (match ax.L.wo with
    | L.Wo_none -> ()
    | L.Wo_per_location ->
      let locs = List.sort_uniq compare (List.concat_map locs_of (Array.to_list ops)) in
      List.iter
        (fun loc ->
          chain
            (ids (fun o ->
                 match Op.writes_value o with Some (l, _) -> l = loc | None -> false)))
        locs
    | L.Wo_global -> chain (ids Op.is_write_like));
    if ax.L.rt then chain (List.init n Fun.id);
    m

  (* Warshall, then drop the other processes' memory reads *)
  let relation t ax ~reader =
    match Hashtbl.find_opt t.memo (ax, reader) with
    | Some rel -> rel
    | None ->
      let c = warshall_matrix (edges t ax ~reader) in
      let keep id =
        let o = History.op t.h id in
        not (Op.is_memory_read o && o.Op.proc <> reader)
      in
      let rel = Array.mapi (fun i row -> Array.mapi (fun j b -> b && keep i && keep j) row) c in
      Hashtbl.add t.memo (ax, reader) rel;
      rel

  let values_at (o : Op.t) loc =
    List.filter_map
      (function Some (l, v) when l = loc -> Some v | Some _ | None -> None)
      [ Op.writes_value o; Op.reads_value o ]

  (* the read rule, scanning every operation for the first interposer *)
  let read_rule h rel ~read_id =
    let loc, value =
      match (History.op h read_id).Op.kind with
      | Op.Read { loc; value; _ } -> (loc, value)
      | _ -> invalid_arg "Oracle.read_rule: not a memory read"
    in
    let interposed w =
      let found = ref None in
      Array.iter
        (fun (o : Op.t) ->
          let after_w = match w with None -> true | Some w -> w <> o.Op.id && rel.(w).(o.Op.id) in
          if !found = None && o.Op.id <> read_id && after_w && rel.(o.Op.id).(read_id)
             && List.exists (fun u -> u <> value) (values_at o loc)
          then found := Some o.Op.id)
        (History.ops h);
      !found
    in
    let writers = List.filter (fun w -> rel.(w).(read_id)) (History.writers_of h loc value) in
    match List.find_opt (fun w -> interposed (Some w) = None) writers with
    | Some _ -> Read_rule.Valid
    | None -> (
      if value = History.initial_value h loc then
        match interposed None with None -> Read_rule.Valid | Some o -> Read_rule.Overwritten o
      else
        match writers with
        | [] -> Read_rule.No_matching_write
        | w :: _ -> Read_rule.Overwritten (Option.get (interposed (Some w))))

  (* the axiom set a model checks a read at, as [Lattice.verdict] picks it *)
  let axioms_for model (o : Op.t) =
    match (model, o.Op.kind) with
    | L.Mixed, Op.Read { label; _ } -> L.axioms_of_label label
    | L.Group g, _ -> L.axioms_of (L.Group (List.sort_uniq compare (o.Op.proc :: g)))
    | m, _ -> L.axioms_of m

  (* [failures t m] as (read id, verdict) pairs *)
  let failures t model =
    List.filter_map
      (fun (o : Op.t) ->
        if not (Op.is_memory_read o) then None
        else
          let rel = relation t (axioms_for model o) ~reader:o.Op.proc in
          match read_rule t.h rel ~read_id:o.Op.id with
          | Read_rule.Valid -> None
          | v -> Some (o.Op.id, v))
      (Array.to_list (History.ops t.h))
end

(* Section 4's program classes, the Eraser lockset and the lint rules
   L001, L002, L003 and L006 as each was written with its own sort of
   every process and its own held-lock scan, before [History.walk]
   computed that context once for all of them. [Program_class], [Race]'s
   locksets and [Lint] must give the same verdicts, violations, locksets
   and diagnostics, and [advise] below decides with these classifiers. *)
module Discipline = struct
  module Diag = Mc_analysis.Diag

  type lock_mode = Mode_read | Mode_write

  type entry_violation = { op_id : int; loc : Op.location; reason : string }

  type entry_result = {
    assignment : (Op.location * Op.lock_name) list;
    entry_violations : entry_violation list;
  }

  let loc_of_memory_op (o : Op.t) =
    match o.kind with
    | Op.Read { loc; _ } | Op.Write { loc; _ } | Op.Decrement { loc; _ } -> Some loc
    | Op.Await _ | Op.Read_lock _ | Op.Read_unlock _ | Op.Write_lock _
    | Op.Write_unlock _ | Op.Barrier _ | Op.Barrier_group _ ->
      None

  let default_shared h =
    let accessors = Hashtbl.create 32 in
    Array.iter
      (fun (o : Op.t) ->
        match loc_of_memory_op o with
        | Some loc ->
          let procs =
            Option.value ~default:[] (Hashtbl.find_opt accessors loc)
          in
          if not (List.mem o.proc procs) then
            Hashtbl.replace accessors loc (o.proc :: procs)
        | None -> ())
      (History.ops h);
    fun loc ->
      match Hashtbl.find_opt accessors loc with
      | Some (_ :: _ :: _) -> true
      | Some _ | None -> false

  (* Per-process scan, in invocation order, tracking which locks are held in
     which mode when each memory access is issued. *)
  let accesses_with_held_locks h =
    let by_proc = Array.make (History.procs h) [] in
    Array.iter
      (fun (o : Op.t) -> by_proc.(o.proc) <- o :: by_proc.(o.proc))
      (History.ops h);
    let results = ref [] in
    Array.iter
      (fun ops_of_p ->
        let sorted =
          List.sort
            (fun (a : Op.t) (b : Op.t) -> compare a.inv_seq b.inv_seq)
            ops_of_p
        in
        let held = Hashtbl.create 4 in
        (* lock -> mode list (a stack; nesting not expected but harmless) *)
        let push l mode =
          Hashtbl.replace held l
            (mode :: Option.value ~default:[] (Hashtbl.find_opt held l))
        in
        let pop l =
          match Hashtbl.find_opt held l with
          | Some (_ :: rest) ->
            if rest = [] then Hashtbl.remove held l else Hashtbl.replace held l rest
          | Some [] | None -> ()
        in
        List.iter
          (fun (o : Op.t) ->
            match o.kind with
            | Op.Read_lock l -> push l Mode_read
            | Op.Write_lock l -> push l Mode_write
            | Op.Read_unlock l | Op.Write_unlock l -> pop l
            | _ -> (
              match loc_of_memory_op o with
              | Some loc ->
                let held_now =
                  Hashtbl.fold (fun l modes acc -> (l, List.hd modes) :: acc) held []
                in
                results := (o, loc, held_now) :: !results
              | None -> ()))
          sorted)
      by_proc;
    List.rev !results

  let check_entry_consistent ?shared h =
    let shared = match shared with Some f -> f | None -> default_shared h in
    let accesses = accesses_with_held_locks h in
    (* candidate locks per variable: intersection over accesses of the locks
       held with a sufficient mode *)
    let candidates : (Op.location, Op.lock_name list option ref) Hashtbl.t =
      Hashtbl.create 16
    in
    let uncovered = ref [] in
    List.iter
      (fun ((o : Op.t), loc, held) ->
        if shared loc then begin
          let needs_write = Op.is_write_like o in
          let sufficient =
            List.filter_map
              (fun (l, mode) ->
                match mode, needs_write with
                | Mode_write, _ -> Some l
                | Mode_read, false -> Some l
                | Mode_read, true -> None)
              held
          in
          if sufficient = [] then
            uncovered :=
              {
                op_id = o.id;
                loc;
                reason =
                  (if needs_write then "write access without a write lock"
                   else "read access without a lock");
              }
              :: !uncovered;
          let cell =
            match Hashtbl.find_opt candidates loc with
            | Some c -> c
            | None ->
              let c = ref None in
              Hashtbl.add candidates loc c;
              c
          in
          match !cell with
          | None -> cell := Some sufficient
          | Some prev -> cell := Some (List.filter (fun l -> List.mem l sufficient) prev)
        end)
      accesses;
    let assignment = ref [] in
    let violations = ref (List.rev !uncovered) in
    Hashtbl.iter
      (fun loc cell ->
        match !cell with
        | Some (l :: _) -> assignment := (loc, l) :: !assignment
        | Some [] | None ->
          violations :=
            { op_id = -1; loc; reason = "no single lock covers every access" }
            :: !violations)
      candidates;
    {
      assignment = List.sort compare !assignment;
      entry_violations = !violations;
    }

  let is_entry_consistent ?shared h =
    (check_entry_consistent ?shared h).entry_violations = []

  type phase_violation = Mc_consistency.Program_class.phase_violation = {
    op_id : int;
    loc : Op.location;
    phase : int;
    reason : string;
  }

  let check_pram_consistent ?shared h =
    let shared = match shared with Some f -> f | None -> default_shared h in
    let by_proc = Array.make (History.procs h) [] in
    Array.iter
      (fun (o : Op.t) -> by_proc.(o.proc) <- o :: by_proc.(o.proc))
      (History.ops h);
    (* phase of each op: number of barriers before it in its process *)
    let phase_of = Hashtbl.create 64 in
    Array.iter
      (fun ops_of_p ->
        let sorted =
          List.sort
            (fun (a : Op.t) (b : Op.t) -> compare a.inv_seq b.inv_seq)
            ops_of_p
        in
        let phase = ref 0 in
        List.iter
          (fun (o : Op.t) ->
            Hashtbl.replace phase_of o.id !phase;
            match o.kind with
            | Op.Barrier _ | Op.Barrier_group _ -> incr phase
            | _ -> ())
          sorted)
      by_proc;
    let violations = ref [] in
    let report op_id loc phase reason = violations := { op_id; loc; phase; reason } :: !violations in
    (* group shared-variable accesses by (loc, phase) *)
    let groups : (Op.location * int, Op.t list) Hashtbl.t = Hashtbl.create 64 in
    Array.iter
      (fun (o : Op.t) ->
        match loc_of_memory_op o with
        | Some loc when shared loc ->
          let phase = Hashtbl.find phase_of o.id in
          let key = (loc, phase) in
          let prev = Option.value ~default:[] (Hashtbl.find_opt groups key) in
          Hashtbl.replace groups key (o :: prev)
        | Some _ | None -> ())
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

  let is_pram_consistent ?shared h = check_pram_consistent ?shared h = []

  (* Lockset.analyze *)

  type state = Virgin | Exclusive | Shared | Shared_modified

  type info = {
    loc : Op.location;
    state : state;
    candidates : Op.lock_name list;
    accessors : int list;
    first_unprotected : int option;
    awaited : bool;
  }

  let state_to_string = function
    | Virgin -> "virgin"
    | Exclusive -> "exclusive"
    | Shared -> "shared"
    | Shared_modified -> "shared-modified"

  type cell = {
    mutable st : state;
    mutable owner : int;
    mutable cands : Op.lock_name list option; (* None = universe *)
    mutable accs : int list;
    mutable first_empty : int option;
    mutable has_await : bool;
  }

  let analyze ?shared h =
    let shared =
      match shared with Some f -> f | None -> default_shared h
    in
    let cells : (Op.location, cell) Hashtbl.t = Hashtbl.create 16 in
    let cell loc =
      match Hashtbl.find_opt cells loc with
      | Some c -> c
      | None ->
        let c =
          {
            st = Virgin;
            owner = -1;
            cands = None;
            accs = [];
            first_empty = None;
            has_await = false;
          }
        in
        Hashtbl.add cells loc c;
        c
    in
    (* accesses in per-process invocation order, with the held locksets *)
    List.iter
      (fun ((o : Op.t), loc, held) ->
        if shared loc then begin
          let c = cell loc in
          let is_write = Op.is_write_like o in
          (* Eraser state machine *)
          (c.st <-
             (match c.st with
             | Virgin -> Exclusive
             | Exclusive when o.proc = c.owner -> Exclusive
             | Exclusive -> if is_write then Shared_modified else Shared
             | Shared -> if is_write then Shared_modified else Shared
             | Shared_modified -> Shared_modified));
          if c.owner = -1 then c.owner <- o.proc;
          if not (List.mem o.proc c.accs) then c.accs <- o.proc :: c.accs;
          (* lockset refinement: write accesses only count write-mode locks *)
          let sufficient =
            List.filter_map
              (fun (l, mode) ->
                match mode, is_write with
                | Mode_write, _ -> Some l
                | Mode_read, false -> Some l
                | Mode_read, true -> None)
              held
          in
          let refined =
            match c.cands with
            | None -> sufficient
            | Some prev -> List.filter (fun l -> List.mem l sufficient) prev
          in
          if refined = [] && c.first_empty = None then c.first_empty <- Some o.id;
          c.cands <- Some refined
        end)
      (accesses_with_held_locks h);
    (* awaits bypass the lock discipline entirely *)
    Array.iter
      (fun (o : Op.t) ->
        match o.kind with
        | Op.Await { loc; _ } when shared loc -> (cell loc).has_await <- true
        | _ -> ())
      (History.ops h);
    Hashtbl.fold
      (fun loc c acc ->
        {
          loc;
          state = c.st;
          candidates = List.sort compare (Option.value ~default:[] c.cands);
          accessors = List.sort compare c.accs;
          first_unprotected = c.first_empty;
          awaited = c.has_await;
        }
        :: acc)
      cells []
    |> List.sort (fun a b -> compare a.loc b.loc)

  (* Lint's lock scan *)
  type mode = R | W

  let lock_lint h =
    let ops = History.ops h in
    let procs = History.procs h in
    let diags = ref [] in
    let add d = diags := d :: !diags in
    let by_proc = Array.make procs [] in
    Array.iter (fun (o : Op.t) -> by_proc.(o.proc) <- o :: by_proc.(o.proc)) ops;
    let by_proc =
      Array.map
        (fun l ->
          List.sort (fun (a : Op.t) (b : Op.t) -> compare a.inv_seq b.inv_seq) l)
        by_proc
    in
    (* ---- per-process lock-discipline scan: L001, L002, L003, L006 ---- *)
    Array.iteri
      (fun p ops_of_p ->
        (* lock -> stack of (mode, acquiring op id) *)
        let held : (Op.lock_name, (mode * int) list) Hashtbl.t =
          Hashtbl.create 4
        in
        let stack l = Option.value ~default:[] (Hashtbl.find_opt held l) in
        let acquire (o : Op.t) l m =
          (if stack l <> [] then
             add
               (Diag.make ~rule:"L002" ~severity:Diag.Warning ~op_id:o.id ~proc:p
                  ~loc:l
                  (Printf.sprintf
                     "process %d acquires lock %s while already holding it" p l)));
          Hashtbl.replace held l ((m, o.id) :: stack l)
        in
        let release (o : Op.t) l m =
          match stack l with
          | [] ->
            add
              (Diag.make ~rule:"L001" ~severity:Diag.Error ~op_id:o.id ~proc:p
                 ~loc:l
                 (Printf.sprintf "process %d unlocks %s without holding it" p l))
          | (m', _) :: rest ->
            if m' <> m then
              add
                (Diag.make ~rule:"L001" ~severity:Diag.Error ~op_id:o.id ~proc:p
                   ~loc:l
                   (Printf.sprintf
                      "process %d releases %s with a %s unlock but holds it in \
                       %s mode"
                      p l
                      (if m = W then "write" else "read")
                      (if m' = W then "write" else "read")));
            if rest = [] then Hashtbl.remove held l
            else Hashtbl.replace held l rest
        in
        List.iter
          (fun (o : Op.t) ->
            match o.kind with
            | Op.Read_lock l -> acquire o l R
            | Op.Write_lock l -> acquire o l W
            | Op.Read_unlock l -> release o l R
            | Op.Write_unlock l -> release o l W
            | _ ->
              if Op.is_write_like o then begin
                let held_now =
                  Hashtbl.fold (fun l s acc -> (l, List.hd s) :: acc) held []
                in
                let only_read =
                  held_now <> []
                  && List.for_all (fun (_, (m, _)) -> m = R) held_now
                in
                if only_read then
                  let locks =
                    String.concat "," (List.map fst held_now)
                  in
                  add
                    (Diag.make ~rule:"L006" ~severity:Diag.Error ~op_id:o.id
                       ~proc:p
                       ?loc:
                         (match Op.writes_value o with
                         | Some (loc, _) -> Some loc
                         | None -> None)
                       (Printf.sprintf
                          "write by process %d under read lock(s) %s only: a \
                           read lock cannot protect a write"
                          p locks))
              end)
          ops_of_p;
        Hashtbl.iter
          (fun l s ->
            List.iter
              (fun (_, acq_id) ->
                add
                  (Diag.make ~rule:"L003" ~severity:Diag.Warning ~op_id:acq_id
                     ~proc:p ~loc:l
                     (Printf.sprintf
                        "lock %s acquired by process %d (op %d) is still held \
                         when its history ends"
                        l p acq_id)))
              s)
          held)
      by_proc;
    List.sort Diag.compare !diags
end

(* The label advisor read by read: each read's labels and lattice points
   decided by per-read verdicts over the closures [Lattice] memoizes per
   (point, reader), with a malformed group validating nothing, and the
   corollaries decided by [Discipline]'s classifiers. [Advisor.advise]
   must give the same advice. *)
let advise h =
  let module L = Mc_consistency.Lattice in
  let module A = Mc_analysis.Advisor in
  let shared = Discipline.default_shared h in
  let entry = Discipline.is_entry_consistent ~shared h in
  let pramc = Discipline.is_pram_consistent ~shared h in
  let ok f = try f () = Mc_consistency.Read_rule.Valid with Invalid_argument _ -> false in
  List.filter_map
    (fun (o : Op.t) ->
      match o.Op.kind with
      | Op.Read { loc; label; _ } ->
        let read_id = o.Op.id in
        let valid l = ok (fun () -> L.verdict_at h l ~read_id) in
        let candidates =
          (Op.PRAM :: (match label with Op.Group _ -> [ label ] | _ -> [])) @ [ Op.Causal ]
        in
        let recommended =
          if pramc && valid Op.PRAM then Some Op.PRAM
          else if entry && shared loc && valid Op.Causal then Some Op.Causal
          else List.find_opt valid candidates
        in
        let rec_model =
          List.find_opt
            (fun m -> ok (fun () -> L.verdict h m ~read_id))
            (L.
               [
                 Session [];
                 Session [ Read_your_writes ];
                 Session [ Monotonic_reads ];
                 Session [ Read_your_writes; Monotonic_reads ];
                 PRAM;
               ]
            @ (match label with Op.Group g -> [ L.Group g ] | _ -> [])
            @ [ L.Causal ])
        in
        Some
          { A.read_id; declared = label; declared_valid = valid label; recommended; rec_model }
      | _ -> None)
    (Array.to_list (History.ops h))

module Delivery = struct
  module Protocol = Mc_dsm.Protocol

  type view = (Op.location, int * int) Hashtbl.t

  let read (view : view) loc = Option.value (Hashtbl.find_opt view loc) ~default:(0, 0)

  let install (view : view) loc ~numeric ~tag ~is_dec =
    let old_numeric, old_tag = read view loc in
    Hashtbl.replace view loc
      (if is_dec then (old_numeric - numeric, old_tag) else (numeric, tag))

  (* One view's pending list, in arrival order, after a receipt: each
     pass walks it applying whatever is deliverable at its scan
     position, until a pass applies nothing. Returns what stays. *)
  let rec rescan deliverable apply pending =
    let progress = ref false in
    let rec scan = function
      | [] -> []
      | u :: rest ->
        if deliverable u then begin
          apply u;
          progress := true;
          scan rest
        end
        else u :: scan rest
    in
    let rest = scan pending in
    if !progress then rescan deliverable apply rest else rest

  type group = {
    members : int list;
    g_view : view;
    g_applied : int array;
    mutable g_pending : Protocol.update list;
  }

  type shard = {
    s_applied : (int, int) Hashtbl.t;
    s_view : view;
    mutable s_pending : Protocol.shard_update list;
  }

  type t = {
    applied : int array;
    received : int array;
    causal : view;
    pram : view;
    mutable pending : Protocol.update list;
    groups : group list;
    invalid : (Op.location, int array) Hashtbl.t;
    shards : (int, shard) Hashtbl.t;
  }

  let create ~n ?(groups = []) () =
    let group members =
      {
        members = List.sort_uniq compare members;
        g_view = Hashtbl.create 8;
        g_applied = Array.make n 0;
        g_pending = [];
      }
    in
    {
      applied = Array.make n 0;
      received = Array.make n 0;
      causal = Hashtbl.create 8;
      pram = Hashtbl.create 8;
      pending = [];
      groups = List.map group groups;
      invalid = Hashtbl.create 8;
      shards = Hashtbl.create 8;
    }

  let covers counts dep =
    let ok = ref true in
    Array.iteri (fun j d -> if counts.(j) < d then ok := false) dep;
    !ok

  (* an update applies to a view once it is its writer's next one and
     every other dependency is met: [met k d] *)
  let deliverable counts met (u : Protocol.update) =
    counts.(u.writer) = u.useq - 1
    && (let ok = ref true in
        Array.iteri (fun k d -> if k <> u.writer && not (met k d) then ok := false) u.dep;
        !ok)

  let receive t (u : Protocol.update) =
    t.received.(u.writer) <- t.received.(u.writer) + 1;
    install t.pram u.loc ~numeric:u.numeric ~tag:u.tag ~is_dec:u.is_dec;
    let apply view counts (u : Protocol.update) =
      install view u.loc ~numeric:u.numeric ~tag:u.tag ~is_dec:u.is_dec;
      counts.(u.writer) <- counts.(u.writer) + 1
    in
    t.pending <-
      rescan
        (deliverable t.applied (fun k d -> t.applied.(k) >= d))
        (apply t.causal t.applied) (t.pending @ [ u ]);
    List.iter
      (fun g ->
        (* member dependencies gate on this view, the rest on receipt *)
        let met k d =
          if List.mem k g.members then g.g_applied.(k) >= d else t.received.(k) >= d
        in
        g.g_pending <-
          rescan (deliverable g.g_applied met) (apply g.g_view g.g_applied)
            (g.g_pending @ [ u ]))
      t.groups

  let mark_invalid t loc dep =
    if not (covers t.applied dep) then
      Hashtbl.replace t.invalid loc
        (match Hashtbl.find_opt t.invalid loc with
        | Some prev -> Array.map2 max prev dep
        | None -> dep)

  let location_blocked t loc =
    match Hashtbl.find_opt t.invalid loc with
    | Some dep -> not (covers t.applied dep)
    | None -> false

  let applied t = Array.copy t.applied
  let received t = Array.copy t.received
  let causal_read t loc = read t.causal loc
  let pram_read t loc = read t.pram loc

  let group_read t ~group loc =
    let members = List.sort_uniq compare group in
    read (List.find (fun g -> g.members = members) t.groups).g_view loc

  let pending_count t =
    Hashtbl.fold (fun _ s acc -> acc + List.length s.s_pending) t.shards
      (List.length t.pending)

  (* sharded mode: one pending list per subscribed shard, gated by the
     sparse shard-scoped clock *)
  let count tbl w = Option.value (Hashtbl.find_opt tbl w) ~default:0

  let subscribe_shard t ?(clock = []) ?(values = []) ~shard () =
    let s = { s_applied = Hashtbl.create 8; s_view = Hashtbl.create 8; s_pending = [] } in
    List.iter (fun (w, c) -> Hashtbl.replace s.s_applied w c) clock;
    List.iter
      (fun (loc, numeric, tag) ->
        install s.s_view loc ~numeric ~tag ~is_dec:false;
        install t.pram loc ~numeric ~tag ~is_dec:false)
      values;
    Hashtbl.replace t.shards shard s

  let shard_receive t (su : Protocol.shard_update) =
    match Hashtbl.find_opt t.shards su.su_shard with
    | None -> ()
    | Some s when su.su_sseq <= count s.s_applied su.su_writer -> ()
    | Some s ->
      t.received.(su.su_writer) <- t.received.(su.su_writer) + 1;
      install t.pram su.su_loc ~numeric:su.su_numeric ~tag:su.su_tag
        ~is_dec:su.su_is_dec;
      let deliverable (su : Protocol.shard_update) =
        count s.s_applied su.su_writer = su.su_sseq - 1
        && List.for_all (fun (j, d) -> count s.s_applied j >= d) su.su_sdep
      in
      let apply (su : Protocol.shard_update) =
        install s.s_view su.su_loc ~numeric:su.su_numeric ~tag:su.su_tag
          ~is_dec:su.su_is_dec;
        Hashtbl.replace s.s_applied su.su_writer su.su_sseq
      in
      s.s_pending <- rescan deliverable apply (s.s_pending @ [ su ])

  let shard_read t ~shard loc = read (Hashtbl.find t.shards shard).s_view loc

  let shard_clock t ~shard =
    List.sort compare
      (Hashtbl.fold (fun w c acc -> (w, c) :: acc) (Hashtbl.find t.shards shard).s_applied [])

  let shard_queue_depths t =
    List.sort compare
      (Hashtbl.fold (fun shard s acc -> (shard, List.length s.s_pending) :: acc) t.shards [])
end

(* ------------------------------------------------------------------ *)
(* The placement barrier's counts, dense                               *)
(* ------------------------------------------------------------------ *)

module Barrier_counts = struct
  (* [written.(w).(s)]: writes process [w] has made to shard [s];
     [arrivals] maps an episode to the matrix of every member's row as
     it stood at that member's arrival *)
  type t = {
    written : int array array;
    arrivals : (int, int array array) Hashtbl.t;
  }

  let create ~procs ~shards =
    { written = Array.make_matrix procs shards 0; arrivals = Hashtbl.create 8 }

  let write t ~proc ~shard = t.written.(proc).(shard) <- t.written.(proc).(shard) + 1

  let arrive t ~proc ~episode =
    let m =
      match Hashtbl.find_opt t.arrivals episode with
      | Some m -> m
      | None ->
        let m = Array.map (fun row -> Array.make (Array.length row) 0) t.written in
        Hashtbl.add t.arrivals episode m;
        m
    in
    m.(proc) <- Array.copy t.written.(proc)

  (* what [proc] must wait for when it leaves [episode]: every other
     process's count of every shard [proc] subscribes to, where nonzero,
     as sorted (writer, shard, count) entries *)
  let expected t ~episode ~subscribed ~proc =
    let m = Hashtbl.find t.arrivals episode in
    let entries = ref [] in
    Array.iteri
      (fun w row ->
        Array.iteri
          (fun s c ->
            if w <> proc && c > 0 && subscribed ~node:proc ~shard:s then
              entries := (w, s, c) :: !entries)
          row)
      m;
    List.sort compare !entries
end
