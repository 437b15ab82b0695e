(* The consistency lattice: a model is a value (ISSUE 7 tentpole).

   Following the axiom decompositions of Steinke & Nutt ("A Unified
   Theory of Shared Memory Consistency") and Almeida ("A Framework for
   Consistency Models"), every model here is a set of edge-generating
   axioms. For a reader [i] the model's relation is

     restrict (TC (po ∪ wi ∪ sync ∪ wo ∪ rt)) (no foreign memory reads)

   where each component is an axiom-selected subset of the history's
   derived relations:

   - po:   program order — all of it, only same-location edges (plus
           fences), only the reader's session edges, or none;
   - wi:   writes-into (reads-from) edges, filtered to the edges that
           touch the reader, a process group, or kept whole;
   - sync: the reduced synchronization covering, filtered the same way
           (its transitive closure equals the full sync order, so the
           causal point matches Definition 2's relation exactly);
   - wo:   a total per-location (or global) write order taken from the
           recording order — ids are assigned in simulation-time response
           order, so this is the sim-time serialization witness;
   - rt:   the real-time total order over all operations, again the id
           order.

   One closure of the selected edges is built and memoized per axiom
   set; it is keyed by the reader only when an axiom is reader-scoped
   ([S_reader] or [Po_session]). The closure is not restricted:
   {!Read_rule.check} skips other processes' memory reads itself, which
   gives the same verdicts as checking against the restricted relation.

   Verdicts come from the one generic {!Read_rule} engine applied to
   that relation, so [Causal]/[PRAM]/[Group]/[Mixed] reproduce the seed
   checkers verdict-for-verdict (the differential suite in
   test/test_lattice.ml proves it), while [SC] and [Linearizable] are
   witness-based: a failure means the history is not SC/linearizable
   under the sim-time serialization (conservative in the strong
   direction — a history rejected here might still be SC under some
   other serialization; [Sequential.is_sequentially_consistent] remains
   the bounded exact search).

   Monotonicity holds by construction: every model keeps the writes-into
   edges incident to the reader, so under the unique-writes assumption
   the candidate-writer set of a read is the same at every lattice point
   and a larger relation can only add interposers. Hence
   [leq m1 m2] implies [failures m1 ⊆ failures m2] (as read-id sets) —
   the QCheck property of the test suite. *)

module History = Mc_history.History
module Op = Mc_history.Op
module Relation = Mc_util.Relation

type guarantee = Model.guarantee = Read_your_writes | Monotonic_reads

type t = Model.t =
  | Linearizable
  | SC
  | Processor
  | Cache
  | Causal
  | Mixed
  | Group of int list
  | PRAM
  | Slow
  | Session of guarantee list

(* ------------------------------------------------------------------ *)
(* Axioms                                                              *)
(* ------------------------------------------------------------------ *)

type po_axiom =
  | Po_none
  | Po_session of { ryw : bool; mr : bool }
  | Po_per_location
  | Po_global

type scope = S_none | S_reader | S_group of int list | S_all
type wo_axiom = Wo_none | Wo_per_location | Wo_global

type axioms = {
  po : po_axiom;
  wi : scope;  (** writes-into (reads-from) edges *)
  sync : scope;  (** reduced synchronization-order edges *)
  wo : wo_axiom;  (** sim-time total write order *)
  rt : bool;  (** sim-time real-time order over all operations *)
}

let norm_group = Model.norm_group

let norm_session gs =
  let mem g = List.mem g gs in
  (mem Read_your_writes, mem Monotonic_reads)

let session_po gs =
  match norm_session gs with
  | false, false -> Po_none
  | ryw, mr -> Po_session { ryw; mr }

let axioms_of = function
  | Linearizable -> { po = Po_global; wi = S_all; sync = S_all; wo = Wo_global; rt = true }
  | SC -> { po = Po_global; wi = S_all; sync = S_all; wo = Wo_global; rt = false }
  | Processor -> { po = Po_global; wi = S_all; sync = S_reader; wo = Wo_per_location; rt = false }
  | Cache -> { po = Po_per_location; wi = S_all; sync = S_none; wo = Wo_per_location; rt = false }
  | Causal -> { po = Po_global; wi = S_all; sync = S_all; wo = Wo_none; rt = false }
  | Group g ->
    let g = norm_group g in
    { po = Po_global; wi = S_group g; sync = S_group g; wo = Wo_none; rt = false }
  | PRAM -> { po = Po_global; wi = S_reader; sync = S_reader; wo = Wo_none; rt = false }
  | Slow -> { po = Po_per_location; wi = S_reader; sync = S_none; wo = Wo_none; rt = false }
  | Session gs -> { po = session_po gs; wi = S_reader; sync = S_none; wo = Wo_none; rt = false }
  | Mixed -> invalid_arg "Lattice.axioms_of: Mixed dispatches on per-read labels"

(* the axiom point of one declared read label: the seed per-label
   checkers (Defs. 2/3, §3.2). The group is kept verbatim — the reader
   must be a member, as in Section 3.2's group relation. *)
let axioms_of_label = function
  | Op.PRAM -> axioms_of PRAM
  | Op.Causal -> axioms_of Causal
  | Op.Group g ->
    let g = norm_group g in
    { po = Po_global; wi = S_group g; sync = S_group g; wo = Wo_none; rt = false }

(* ------------------------------------------------------------------ *)
(* Order, meet, join                                                   *)
(* ------------------------------------------------------------------ *)

let po_leq a b =
  match (a, b) with
  | Po_none, _ -> true
  | _, Po_global -> true
  | Po_session { ryw = r1; mr = m1 }, Po_session { ryw = r2; mr = m2 } ->
    ((not r1) || r2) && ((not m1) || m2)
  | Po_per_location, Po_per_location -> true
  | (Po_session _ | Po_per_location | Po_global), _ -> false

let scope_leq a b =
  match (a, b) with
  | S_none, _ -> true
  | _, S_all -> true
  (* group scopes are implicitly reader-augmented, so the reader scope
     is below every group scope and the empty group collapses to it *)
  | S_reader, (S_reader | S_group _) -> true
  | S_group g, S_reader -> norm_group g = []
  | S_group g1, S_group g2 ->
    List.for_all (fun m -> List.mem m (norm_group g2)) (norm_group g1)
  | (S_reader | S_group _ | S_all), _ -> false

let wo_leq a b =
  match (a, b) with
  | Wo_none, _ -> true
  | _, Wo_global -> true
  | Wo_per_location, Wo_per_location -> true
  | (Wo_per_location | Wo_global), _ -> false

let ax_leq a b =
  po_leq a.po b.po && scope_leq a.wi b.wi && scope_leq a.sync b.sync
  && wo_leq a.wo b.wo
  && ((not a.rt) || b.rt)

(* [Mixed] checks each read at its own declared label, every label point
   lying between PRAM and Causal; as a lattice element it behaves as
   that interval: below everything above Causal, above everything below
   PRAM. *)
let rec leq a b =
  match (a, b) with
  | Mixed, Mixed -> true
  | Mixed, _ -> leq Causal b
  | _, Mixed -> leq a PRAM
  | _ -> ax_leq (axioms_of a) (axioms_of b)

let equal a b = leq a b && leq b a

let base_candidates =
  [
    Linearizable;
    SC;
    Processor;
    Cache;
    Causal;
    PRAM;
    Slow;
    Session [ Read_your_writes; Monotonic_reads ];
    Session [ Read_your_writes ];
    Session [ Monotonic_reads ];
    Session [];
  ]

let group_inter g1 g2 = List.filter (fun m -> List.mem m (norm_group g2)) (norm_group g1)
let group_union g1 g2 = norm_group (g1 @ g2)

(* glb / lub within the named model set. The named poset is a lattice
   (checked pairwise); the search picks the unique extremal bound and
   falls back to a safe bound should a new named point ever break
   uniqueness. *)
let extremal ~above candidates a b =
  let bound c = if above then leq a c && leq b c else leq c a && leq c b in
  let bounds = List.filter bound candidates in
  let dominates c = List.for_all (fun c' -> if above then leq c c' else leq c' c) bounds in
  match List.find_opt dominates bounds with
  | Some c -> c
  | None -> if above then Linearizable else Session []

let meet a b =
  if leq a b then a
  else if leq b a then b
  else
    let a' = match a with Mixed -> PRAM | _ -> a in
    let b' = match b with Mixed -> PRAM | _ -> b in
    let groups =
      match (a', b') with
      | Group g1, Group g2 -> [ Group (group_inter g1 g2) ]
      | _ -> []
    in
    extremal ~above:false (groups @ base_candidates) a' b'

let join a b =
  if leq a b then b
  else if leq b a then a
  else
    let a' = match a with Mixed -> Causal | _ -> a in
    let b' = match b with Mixed -> Causal | _ -> b in
    let groups =
      match (a', b') with
      | Group g1, Group g2 -> [ Group (group_union g1 g2) ]
      | _ -> []
    in
    extremal ~above:true (groups @ base_candidates) a' b'

(* ------------------------------------------------------------------ *)
(* Names                                                               *)
(* ------------------------------------------------------------------ *)

let to_string = Model.to_string

let of_string s =
  let s = String.lowercase_ascii (String.trim s) in
  let split_tail prefix =
    let n = String.length prefix in
    if String.length s > n && String.sub s 0 n = prefix then
      Some (String.split_on_char ',' (String.sub s n (String.length s - n)))
    else None
  in
  match s with
  | "linearizable" | "lin" -> Ok Linearizable
  | "sc" -> Ok SC
  | "processor" -> Ok Processor
  | "cache" -> Ok Cache
  | "causal" -> Ok Causal
  | "mixed" -> Ok Mixed
  | "pram" -> Ok PRAM
  | "slow" -> Ok Slow
  | "session" -> Ok (Session [ Read_your_writes; Monotonic_reads ])
  | "session:none" -> Ok (Session [])
  | "group" | "group:" -> Ok (Group []) (* order-equivalent to pram *)
  | _ -> (
    match split_tail "session:" with
    | Some parts -> (
      try
        Ok
          (Session
             (List.map
                (function
                  | "ryw" -> Read_your_writes
                  | "mr" -> Monotonic_reads
                  | g -> failwith g)
                parts))
      with Failure g -> Error (Printf.sprintf "unknown session guarantee %S (want ryw|mr)" g))
    | None -> (
      match split_tail "group:" with
      | Some parts -> (
        try Ok (Group (List.map int_of_string parts))
        with Failure _ -> Error "group members must be integers: group:0,1,...")
      | None ->
        Error
          (Printf.sprintf
             "unknown model %S (want \
              sc|linearizable|causal|mixed|processor|cache|pram|slow|group:0,1|session:ryw,mr)"
             s)))

let pp fmt m = Format.pp_print_string fmt (to_string m)

(* the default bench / documentation ladder, weakest first *)
let ladder =
  [
    Session [ Read_your_writes; Monotonic_reads ];
    Slow;
    PRAM;
    Cache;
    Mixed;
    Causal;
    Processor;
    SC;
    Linearizable;
  ]

(* ------------------------------------------------------------------ *)
(* Relation construction                                               *)
(* ------------------------------------------------------------------ *)

let locs_of (o : Op.t) =
  let add acc = function Some (l, _) -> l :: acc | None -> acc in
  add (add [] (Op.writes_value o)) (Op.reads_value o)

let scope_admits scope ~reader =
  match scope with
  | S_none -> fun _ _ -> false
  | S_reader -> fun sp np -> sp = reader || np = reader
  | S_group g ->
    let g = norm_group g in
    fun sp np -> List.mem sp g || List.mem np g
  | S_all -> fun _ _ -> true

let scope_key = function
  | S_none -> "n"
  | S_reader -> "r"
  | S_group g -> "g" ^ String.concat "," (List.map string_of_int (norm_group g))
  | S_all -> "*"

(* The relation depends on the reader only through reader-scoped axioms;
   every other axiom set shares one closure across all readers. *)
let reader_scoped ax =
  (match ax.po with
  | Po_session _ -> true
  | Po_none | Po_per_location | Po_global -> false)
  || ax.wi = S_reader || ax.sync = S_reader

let axioms_key ax ~reader =
  let po =
    match ax.po with
    | Po_none -> "n"
    | Po_session { ryw; mr } -> Printf.sprintf "s%b%b" ryw mr
    | Po_per_location -> "l"
    | Po_global -> "*"
  in
  let wo =
    match ax.wo with Wo_none -> "n" | Wo_per_location -> "l" | Wo_global -> "*"
  in
  Printf.sprintf "lat|po=%s|wi=%s|sy=%s|wo=%s|rt=%b|i=%s" po (scope_key ax.wi)
    (scope_key ax.sync) wo ax.rt
    (if reader_scoped ax then string_of_int reader else "*")

(* chain consecutive elements; the transitive closure totally orders
   them. Ids ascend, so the chain is the sim-time order. *)
let chain rel = function
  | [] | [ _ ] -> ()
  | first :: rest -> ignore (List.fold_left (fun p x -> Relation.add rel p x; x) first rest)

let build h ax ~reader =
  let n = History.length h in
  let ops = History.ops h in
  let e = Relation.create n in
  let add_filtered src keep =
    Relation.fold src (fun () i j -> if keep i j then Relation.add e i j) ()
  in
  (* unfiltered sources are ORed in row by row *)
  let add_scoped src = function
    | S_none -> ()
    | S_all -> Relation.union_into e src
    | (S_reader | S_group _) as scope ->
      let admits = scope_admits scope ~reader in
      add_filtered src (fun i j -> admits ops.(i).Op.proc ops.(j).Op.proc)
  in
  (match ax.po with
  | Po_none -> ()
  | Po_global -> Relation.union_into e (History.program_order h)
  | Po_per_location ->
    (* same-location edges; synchronization operations act as fences *)
    let locs = Array.map locs_of ops in
    add_filtered (History.program_order h) (fun i j ->
        Op.is_sync ops.(i) || Op.is_sync ops.(j)
        || List.exists (fun l -> List.mem l locs.(i)) locs.(j))
  | Po_session { ryw; mr } ->
    add_filtered (History.program_order h) (fun i j ->
        let a = ops.(i) and b = ops.(j) in
        a.Op.proc = reader && b.Op.proc = reader
        && Op.is_memory_read b
        && ((ryw && Op.is_write_like a) || (mr && Op.is_memory_read a))));
  add_scoped (History.reads_from h) ax.wi;
  add_scoped (History.sync_order_reduced h) ax.sync;
  (match ax.wo with
  | Wo_none -> ()
  | Wo_per_location ->
    let by_loc = Hashtbl.create 16 in
    Array.iter
      (fun (o : Op.t) ->
        match Op.writes_value o with
        | Some (loc, _) ->
          Hashtbl.replace by_loc loc
            (o.Op.id :: Option.value ~default:[] (Hashtbl.find_opt by_loc loc))
        | None -> ())
      ops;
    Hashtbl.iter (fun _ ids -> chain e (List.rev ids)) by_loc
  | Wo_global ->
    let writes = ref [] in
    Array.iter (fun (o : Op.t) -> if Op.is_write_like o then writes := o.Op.id :: !writes) ops;
    chain e (List.rev !writes));
  if ax.rt then chain e (List.init n Fun.id);
  e

let validate_scope h ~reader = function
  | S_group g ->
    if not (List.mem reader g) then
      invalid_arg "Lattice.relation: reader must be a group member";
    List.iter
      (fun m ->
        if m < 0 || m >= History.procs h then
          invalid_arg "Lattice.relation: group member out of range")
      g
  | S_none | S_reader | S_all -> ()

(* The closure of the axiom-selected edges, unrestricted: other
   processes' memory reads stay in it, and [Read_rule.check] skips them. *)
let closed h ax ~reader =
  validate_scope h ~reader ax.wi;
  validate_scope h ~reader ax.sync;
  Relation.transitive_closure (build h ax ~reader)

(* [closed], memoized on the history. The scopes are checked on every
   call, so a group's closure cached for a member still rejects a reader
   outside the group. *)
let closure h ax ~reader =
  validate_scope h ~reader ax.wi;
  validate_scope h ~reader ax.sync;
  History.cached_relation h (axioms_key ax ~reader) (fun () -> closed h ax ~reader)

let relation h ax ~reader =
  Relation.restrict (closure h ax ~reader) (fun id ->
      let o = History.op h id in
      not (Op.is_memory_read o && o.Op.proc <> reader))

(* ------------------------------------------------------------------ *)
(* Checking                                                            *)
(* ------------------------------------------------------------------ *)

type failure = Model.failure = { read_id : int; label : Op.label; verdict : Read_rule.verdict }

let augment_group ~reader g = norm_group (reader :: g)

let verdict_at h label ~read_id =
  let reader = (History.op h read_id).Op.proc in
  Read_rule.check h (closure h (axioms_of_label label) ~reader) ~read_id

(* the axiom point [model] checks read [o] at *)
let read_axioms model (o : Op.t) =
  match (model, o.Op.kind) with
  | Mixed, Op.Read { label; _ } -> axioms_of_label label
  | Mixed, _ -> invalid_arg "Read_rule.check: not a memory read"
  | Group g, _ -> axioms_of (Group (augment_group ~reader:o.Op.proc g))
  | m, _ -> axioms_of m

let verdict h model ~read_id =
  let o = History.op h read_id in
  Read_rule.check h (closure h (read_axioms model o) ~reader:o.Op.proc) ~read_id

(* The closure engine. Shared closures are memoized as [verdict] does.
   A reader-scoped closure serves only its reader's reads, so those
   reads are checked one reader at a time against closures built for
   that reader alone and dropped after its reads, instead of keeping one
   closure per reader on the history. *)
let closure_failures h model =
  let found = ref [] in
  let check rel (o : Op.t) label =
    match Read_rule.check h rel ~read_id:o.Op.id with
    | Read_rule.Valid -> ()
    | v -> found := { read_id = o.Op.id; label; verdict = v } :: !found
  in
  let scoped = Array.make (History.procs h) [] in
  Array.iter
    (fun (o : Op.t) ->
      match o.Op.kind with
      | Op.Read { label; _ } ->
        let ax = read_axioms model o in
        if reader_scoped ax then scoped.(o.Op.proc) <- (o, label, ax) :: scoped.(o.Op.proc)
        else check (closure h ax ~reader:o.Op.proc) o label
      | _ -> ())
    (History.ops h);
  Array.iteri
    (fun reader reads ->
      let built = Hashtbl.create 2 in
      List.iter
        (fun (o, label, ax) ->
          let rel =
            match Hashtbl.find_opt built ax with
            | Some rel -> rel
            | None ->
              let rel = closed h ax ~reader in
              Hashtbl.add built ax rel;
              rel
          in
          check rel o label)
        (List.rev reads))
    scoped;
  List.sort (fun a b -> compare a.read_id b.read_id) !found

let closures h model =
  match closure_failures h model with
  | fs -> Ok fs
  | exception Invalid_argument msg -> Error msg

(* a point [Online] accepts for [h]: a group's members name processes *)
let replayable h = function
  | Group g -> List.for_all (fun m -> m >= 0 && m < History.procs h) g
  | m -> Online.supports m

(* A history within the stream's restrictions has [History]'s covering,
   so one [Online] replay at its streamable points gives the closures'
   failures at each of them; the other points take the closures. A
   replay that raises (a cyclic history, a group read by a non-member,
   a malformed group) falls back to one replay per point, each falling
   back to the closures, which report such a history as they always
   have. Only [Mixed] reads need the history's groups registered. *)
let rec failures_at h models =
  match List.filter (replayable h) models with
  | _ :: _ as points when Mc_history.Stream.meets_restrictions h -> (
    let groups = if List.mem Mixed points then None else Some [] in
    match Online.check ?groups ~points h with
    | chk ->
      let replayed = List.combine points (Online.point_failures chk) in
      List.map
        (fun m -> match List.assoc_opt m replayed with Some fs -> Ok fs | None -> closures h m)
        models
    | exception Invalid_argument _ when List.length points > 1 ->
      List.concat_map (fun m -> failures_at h [ m ]) models
    | exception Invalid_argument _ -> List.map (closures h) models)
  | _ -> List.map (closures h) models

let failures h model =
  match failures_at h [ model ] with
  | [ Ok fs ] -> fs
  | [ Error msg ] -> invalid_arg msg
  | _ -> assert false

let is_consistent h model = failures h model = []

let pp_failure fmt { read_id; label; verdict } =
  Format.fprintf fmt "%s read %d: %a"
    (match label with
    | Op.PRAM -> "PRAM"
    | Op.Causal -> "causal"
    | Op.Group _ -> "group")
    read_id Read_rule.pp_verdict verdict
