(* Streaming mixed-consistency checker.

   Consumes the finalization stream of [Mc_history.Stream] and validates
   every memory read at response time against the read rule of its label
   (Def. 2 causal, Def. 3 PRAM, §3.2 group, composed per Def. 4),
   reproducing the verdicts of [Lattice]'s closures at Mixed without
   materializing the history or any relation matrix. [Lattice.failures]
   replays this checker at streamable points.

   Families. A consistency family is causal, PRAM(i) for a process i, or
   a registered reader group; its relation is the closure of program
   order plus the sync and reads-from edges with an endpoint among its
   members (every edge, for causal). An operation's own families are
   causal, PRAM of its process and the groups containing its process;
   every other family is foreign to it. A foreign family f admits an
   edge into a non-member's program order only from a member, so for an
   operation o outside f

     f-clock(o) = B(o) ⊔ ⨆ own-f-clock(s),  s ∈ f, s →sync/rf o' ≤po o

   where B is the program-order-only clock. (Proof: on a path into o,
   the last edge that is not program order ends in o's program-order
   past, outside f, so it starts at a member s; everything before it is
   in s's own f-clock.) The checker therefore keeps one dense chain
   clock per own family and represents the foreign ones by B plus a
   family → joined member clock map ([n_far]) that is shared along
   program order and grows only at sync and reads-from edges from
   another process. The dense arrays are shared with the chain
   predecessor too, until an in-edge brings something they do not
   cover. Per finalized operation the dense work is O(own families ×
   chains), independent of how many families exist, and a read costs
   the summaries of its value plus the indexed touchers below.

   An operation's clocks are its state on the stream ([node]): the
   stream hands every in-edge's source back with it, so the checker
   keeps no table of operations. Per-location state (writer summaries
   by value, interposer indices) is reached with one location lookup
   per operation.

   A read's verdict needs three kinds of relation queries: [rel w r]
   (candidate writer in the read's past), [rel o r] (interposer in the
   read's past) and [rel w o] (interposer after the writer), all in the
   read's family, which is always one of the reader's own. The first two
   are lookups in the read's dense clock; the last is answered on demand
   from the interposer's retained clocks ([reaches]), because either
   operation may have left the window by the time the read arrives.

   Interposer index. An interposer o(x)u needs u to differ from the
   read's own value, which is the candidate writer's value (or 0 for the
   virtual initial write), so a writer summary records only the touchers
   carrying another value, and a location's initial write only those
   carrying a non-zero value. Memory reads are kept per reading process, since a
   read of another process never interposes (Defs. 2 and 3); writes,
   decrements and awaits share one list. Lists are newest-first and
   scans keep the smallest eligible id, reproducing the offline
   ascending scan.

   State is reclaimed through runtime stability notifications: when a
   value is dead (superseded at every replica, so no future operation can
   read it) its writer summaries and their interposer lists are dropped;
   when the initial value of a location is dead the location's
   virtual-initial-write interposer list is dropped too. *)

module Stream = Mc_history.Stream
module History = Mc_history.History
module Op = Mc_history.Op
module IMap = Map.Make (Int)
module Locs = Hashtbl.Make (String)

(* Retained clocks of a finalized operation. [n_own.(k)] is the dense
   clock of the k-th own family of [n_proc] (see [t.own]) except at the
   operation's own chain, whose inclusive entry is always [n_rank + 1]
   (the chain predecessor is a program-order predecessor, which every
   family contains). So an operation that learns nothing new shares its
   chain predecessor's arrays. [n_po] is the rest of the
   program-order-only clock, as (chain, rank + 1) pairs ascending by
   chain: its own chain's entry is implied by [n_rank] too, so it is []
   for a one-chain process. [n_far] maps a foreign family to
   the join of the member clocks that reached the operation's
   program-order past through sync and reads-from edges. All of it is
   immutable once the operation is finalized, so it is shared freely. *)
type node = {
  n_id : int;
  n_proc : int;
  n_chain : int;
  n_rank : int;
  n_own : int array array;
  n_po : (int * int) list;
  n_far : far IMap.t;
}

(* the clock [fa] ⊔ {fc ↦ fr}, [fc] = -1 for none *)
and far = { fa : int array; fc : int; fr : int }

type clocks = node

(* A potential interposer of a location's virtual initial write: only
   its position, compared against the read's own clock. *)
type stamp = { t_id : int; t_chain : int; t_rank : int }

(* Touchers that can interpose, newest first: write-like operations and
   awaits for every reader, memory reads per reading process. *)
type 'a index = { mutable x_shared : 'a list; mutable x_reads : 'a list ref IMap.t }

(* Retained essence of a finalized writer. *)
type summary = { s_node : node; s_followers : node index }

(* the summaries of one written value, ascending by id *)
type vsum = { vs_value : Op.value; mutable vs_sums : summary list }

type lstate = {
  mutable li_dead : bool; (* initial value is dead *)
  li_touchers : stamp index;
  mutable li_values : vsum list; (* values with live summaries *)
}

(* Which lattice point every read is validated against. [Per_label] is
   the seed behavior (the [Mixed] point of Definition 4); [Uniform m]
   checks every memory read under model [m] regardless of its declared
   label. *)
type mode = Per_label | Uniform of Model.t

(* Session-point state. A session relation keeps only the reader's own
   selected program-order edges (write→read for read-your-writes,
   read→read for monotonic reads) plus the reads-from edges touching
   the reader, so every path to a read runs through the reader's own
   earlier memory operations — chain clocks (whose ranks cover whole
   program-order prefixes) over-approximate it. Instead each process
   keeps its memory reads and writes per location, in program order
   (finalization order within a process is program order: the stream's
   U edges are finalized topologically), and the read rule is decided
   directly on that structure. [sr_writers] records the writers of the
   value a read returned, for reporting foreign-write interposers. *)
type sess_rec = { sr_id : int; sr_value : Op.value; sr_writers : int list }

type sess_state = {
  se_reads : (Op.location, sess_rec list ref) Hashtbl.t; (* newest first *)
  se_writes : (Op.location, sess_rec list ref) Hashtbl.t;
}

(* A read served by demand-driven fetch instead of the local replica
   (sharded mode): the replica holds no view of the location, so the
   chain-clock read rule — which reasons about what this process has
   locally applied — does not describe it. The runtime announces, just
   before recording such a read, the admissible value set derived from
   the fetch snapshot: for every writer counted in the home's per-shard
   clock, that writer's latest write to the location within the
   snapshot. The fetched value is exactly the home's causal-view value
   at the snapshot, so validity is membership in that set. *)
type fetch_note = {
  fn_loc : Op.location;
  fn_admissible : Op.value list;
  fn_zero_ok : bool; (* no write to the location inside the snapshot *)
}

type stats = {
  ops_checked : int;
  reads_checked : int;
  pram_reads : int;
  causal_reads : int;
  group_reads : int;
  fetched_reads : int;
  failure_count : int;
  chains : int;
  max_resident : int;
  live_summaries : int;
}

(* An operation's clocks under construction, one builder per checker.
   [b_own] is [b_base] — its chain predecessor's arrays, or its
   process's empty ones — until the first in-edge that brings something
   new; then the outer array is copied, and an entry is copied only on
   the first contribution it does not already cover. *)
type build = {
  mutable b_proc : int;
  mutable b_chain : int;
  mutable b_rank : int;
  mutable b_base : int array array;
  mutable b_own : int array array;
  mutable b_po : (int * int) list;
  mutable b_far : far IMap.t;
}

type t = {
  t_procs : int;
  t_mode : mode;
  sess_ryw : bool;
  sess_mr : bool;
  sess : sess_state array;
  group_idx : (int list, int) Hashtbl.t;
  own : int array array; (* per process: causal, its PRAM, its groups ascending *)
  empty : int array array array; (* per process: one [||] per own family *)
  b : build;
  locs : lstate Locs.t;
  mutable failures : Model.failure list; (* reverse finalization order *)
  mutable ops_checked : int;
  mutable reads_checked : int;
  mutable pram_reads : int;
  mutable causal_reads : int;
  mutable group_reads : int;
  fetch_notes : (int, fetch_note Queue.t) Hashtbl.t; (* per proc, FIFO *)
  mutable fetched : int list; (* read ids validated via snapshot, reverse *)
  mutable n_fetched : int;
  mutable ch : int; (* chain count high-water *)
  mutable t_engine : node Stream.t option;
}

let clk_get a c = if c < Array.length a then a.(c) else 0

(* Family layout: 0 = causal, 1+i = PRAM(i), 1+procs+k = k-th group. *)

let fam_causal = 0

let new_index () = { x_shared = []; x_reads = IMap.empty }

let lstate t loc =
  match Locs.find t.locs loc with
  | ls -> ls
  | exception Not_found ->
    let ls = { li_dead = false; li_touchers = new_index (); li_values = [] } in
    Locs.add t.locs loc ls;
    ls

(* the summaries of [v] at a location, ascending by id *)
let rec sums_of v = function
  | [] -> []
  | vs :: rest -> if vs.vs_value = v then vs.vs_sums else sums_of v rest

let fam_of_label t ~reader = function
  | Op.PRAM -> 1 + reader
  | Op.Causal -> fam_causal
  | Op.Group g ->
    if not (List.mem reader g) then
      invalid_arg "Online: reader must be a group member";
    List.iter
      (fun m ->
        if m < 0 || m >= t.t_procs then
          invalid_arg "Online: group member out of range")
      g;
    let sg = List.sort_uniq compare g in
    (* deduplicated and range-checked: full length means every process *)
    if List.length sg = t.t_procs then fam_causal
    else (
      match sg with
      | [ i ] -> 1 + i (* i = reader, by the membership check *)
      | _ -> (
        match Hashtbl.find_opt t.group_idx sg with
        | Some f -> f
        | None ->
          invalid_arg
            "Online: unregistered reader group (pass it via ~groups)"))

(* Lattice points the streaming engine can express as chain-clock
   families. The witness-based points (SC, linearizable, processor,
   cache, slow) need sim-time write/real-time orders that are not
   incremental here; [Lattice] checks those with closures. *)
let supports = function
  | Model.Causal | Model.PRAM | Model.Mixed | Model.Group _ | Model.Session _ -> true
  | Model.SC | Model.Linearizable | Model.Processor | Model.Cache | Model.Slow -> false

let make ~procs ?(groups = []) ?model () =
  if procs <= 0 then invalid_arg "Online.make: need at least one process";
  let mode = match model with None -> Per_label | Some m -> Uniform m in
  (match mode with
  | Uniform m when not (supports m) ->
    invalid_arg
      (Printf.sprintf
         "Online.make: model %s is not streamable (sim-time witness \
          orders); use the offline Lattice checker"
         (Model.to_string m))
  | _ -> ());
  let groups =
    (* a uniform group point checks every reader against its own
       reader-augmented group *)
    match mode with
    | Uniform (Model.Group g) ->
      List.init procs (fun i -> List.sort_uniq compare (i :: g)) @ groups
    | _ -> groups
  in
  let canonical =
    List.sort_uniq compare (List.map (List.sort_uniq compare) groups)
  in
  let all = List.init procs Fun.id in
  let real =
    List.filter
      (fun g ->
        List.iter
          (fun m ->
            if m < 0 || m >= procs then
              invalid_arg "Online.make: group member out of range")
          g;
        match g with [] -> invalid_arg "Online.make: empty group" | [ _ ] -> false | _ -> g <> all)
      canonical
  in
  let sessions = match mode with Uniform (Model.Session _) -> true | _ -> false in
  let sess_ryw, sess_mr =
    match mode with
    | Uniform (Model.Session gs) ->
      (List.mem Model.Read_your_writes gs, List.mem Model.Monotonic_reads gs)
    | _ -> (false, false)
  in
  let group_idx = Hashtbl.create 8 in
  let member_of = Array.make procs [] in
  List.iteri
    (fun k g ->
      let f = 1 + procs + k in
      Hashtbl.add group_idx g f;
      List.iter (fun m -> member_of.(m) <- f :: member_of.(m)) g)
    real;
  let own =
    Array.init procs (fun p ->
        Array.of_list (fam_causal :: (1 + p) :: List.rev member_of.(p)))
  in
  {
    t_procs = procs;
    t_mode = mode;
    sess_ryw;
    sess_mr;
    sess =
      (if sessions then
         Array.init procs (fun _ ->
             { se_reads = Hashtbl.create 8; se_writes = Hashtbl.create 8 })
       else [||]);
    group_idx;
    own;
    empty = Array.map (fun fs -> Array.make (Array.length fs) [||]) own;
    b = { b_proc = 0; b_chain = 0; b_rank = 0; b_base = [||]; b_own = [||]; b_po = []; b_far = IMap.empty };
    locs = Locs.create 16;
    failures = [];
    ops_checked = 0;
    reads_checked = 0;
    pram_reads = 0;
    causal_reads = 0;
    group_reads = 0;
    fetch_notes = Hashtbl.create 8;
    fetched = [];
    n_fetched = 0;
    ch = 0;
    t_engine = None;
  }

(* [slot t p f]: the index of family [f] among [p]'s own families, or -1
   when [f] is foreign to [p]. Groups follow causal and PRAM(p) in
   ascending order, so they are found by bisection. *)
let slot t p f =
  if f = fam_causal then 0
  else if f = 1 + p then 1
  else if f <= t.t_procs then -1
  else
    let fs = t.own.(p) in
    let rec go lo hi =
      if lo >= hi then -1
      else
        let mid = (lo + hi) / 2 in
        let x = fs.(mid) in
        if x = f then mid else if x < f then go (mid + 1) hi else go lo mid
    in
    go 2 (Array.length fs)

let join_into dst src =
  let n = min (Array.length dst) (Array.length src) in
  for c = 0 to n - 1 do
    if src.(c) > dst.(c) then dst.(c) <- src.(c)
  done

(* entry [i] of the clock [a] ⊔ {c ↦ r} *)
let pt a c r i =
  let v = clk_get a i in
  if i = c && r > v then r else v

(* does [a] ⊔ {c ↦ r} dominate [b] ⊔ {bc ↦ br}? *)
let rec covers_from a c r b i =
  i >= Array.length b || (b.(i) <= pt a c r i && covers_from a c r b (i + 1))

let covers a c r b bc br = (bc < 0 || br <= pt a c r bc) && covers_from a c r b 0

let far_join x y =
  if covers x.fa x.fc x.fr y.fa y.fc y.fr then x
  else if covers y.fa y.fc y.fr x.fa x.fc x.fr then y
  else begin
    let len = max (max (Array.length x.fa) (Array.length y.fa)) (1 + max x.fc y.fc) in
    let a = Array.make len 0 in
    let add e =
      join_into a e.fa;
      if e.fc >= 0 && e.fr > a.(e.fc) then a.(e.fc) <- e.fr
    in
    add x;
    add y;
    { fa = a; fc = -1; fr = 0 }
  end

(* [far] ⊔ {f ↦ b ⊔ {bc ↦ br}}, [b] the f-clock of the operation at
   [bc], [br - 1]: an entry that holds the operation holds its clock *)
let far_add far f b bc br =
  match IMap.find f far with
  | e when pt e.fa e.fc e.fr bc >= br || covers e.fa e.fc e.fr b bc br -> far
  | e -> IMap.add f (far_join e { fa = b; fc = bc; fr = br }) far
  | exception Not_found -> IMap.add f { fa = b; fc = bc; fr = br } far

(* pointwise max of two (chain, rank) lists ascending by chain *)
let rec po_join a b =
  match (a, b) with
  | [], l | l, [] -> l
  | ((ca, ra) as x) :: a', ((cb, rb) as y) :: b' ->
    if ca < cb then x :: po_join a' b
    else if cb < ca then y :: po_join a b'
    else if ra >= rb then x :: po_join a' b'
    else y :: po_join a' b'

let rec po_get po c =
  match po with [] -> 0 | (c', r) :: rest -> if c' = c then r else po_get rest c

(* the inclusive entry at chain [c] of [n]'s k-th own family *)
let own_get n k c = pt n.n_own.(k) n.n_chain (n.n_rank + 1) c

(* [reaches t o ~fam w]: is [w] strictly before [o] in family [fam]?
   Inclusive clocks of [o] answer it for [w <> o]. *)
let reaches t (o : node) ~fam (w : node) =
  let k = slot t o.n_proc fam in
  if k >= 0 then own_get o k w.n_chain > w.n_rank
  else
    (w.n_chain = o.n_chain && w.n_rank <= o.n_rank)
    || po_get o.n_po w.n_chain > w.n_rank
    ||
    match IMap.find fam o.n_far with
    | e -> pt e.fa e.fc e.fr w.n_chain > w.n_rank
    | exception Not_found -> false

(* newest first: ids arrive ascending, so this is almost always a cons *)
let rec insert_desc id x = function
  | y :: rest when id y > id x -> y :: insert_desc id x rest
  | l -> x :: l

(* [reader] is the reading process of a memory read, -1 otherwise *)
let index_add idx id ~reader x =
  if reader < 0 then idx.x_shared <- insert_desc id x idx.x_shared
  else
    match IMap.find reader idx.x_reads with
    | l -> l := insert_desc id x !l
    | exception Not_found -> idx.x_reads <- IMap.add reader (ref [ x ]) idx.x_reads

(* the own reads of [reader] in [idx]; most indices have none, and a
   raised [Not_found] costs more than the option *)
let index_reads idx ~reader =
  match IMap.find_opt reader idx.x_reads with Some l -> !l | None -> []

let rec insert_summary s = function
  | [] -> [ s ]
  | x :: rest as l ->
    if s.s_node.n_id < x.s_node.n_id then s :: l else x :: insert_summary s rest

(* --- the read rule, replicating Read_rule.check query-for-query ----- *)

(* A read's strict clock in its family is [sr] with its own chain
   [b.b_chain] at [b.b_rank]. Every indexed toucher carries a value
   other than the one it is checked against (see the header), so
   eligibility is only its position between writer and read. Lists are
   newest first, so the last eligible element is the smallest id;
   [best] is the smallest so far, or -1. *)
let before b sr ~chain ~rank = pt sr b.b_chain b.b_rank chain > rank

let rec smallest_follower t b sr ~fam w best = function
  | [] -> best
  | (o : node) :: rest ->
    let best =
      if before b sr ~chain:o.n_chain ~rank:o.n_rank && reaches t o ~fam w then o.n_id
      else best
    in
    smallest_follower t b sr ~fam w best rest

let rec smallest_stamp b sr best = function
  | [] -> best
  | s :: rest ->
    smallest_stamp b sr
      (if before b sr ~chain:s.t_chain ~rank:s.t_rank then s.t_id else best)
      rest

let min_id a b = if a < 0 then b else if b < 0 then a else min a b

let interposer t b sr ~fam ~reader w =
  let x = w.s_followers in
  min_id
    (smallest_follower t b sr ~fam w.s_node (-1) x.x_shared)
    (smallest_follower t b sr ~fam w.s_node (-1) (index_reads x ~reader))

let cand b sr w = before b sr ~chain:w.s_node.n_chain ~rank:w.s_node.n_rank

(* some candidate (a summary in the read's past) has no interposer *)
let rec any_valid t b sr ~fam ~reader = function
  | [] -> false
  | w :: rest ->
    (cand b sr w && interposer t b sr ~fam ~reader w < 0)
    || any_valid t b sr ~fam ~reader rest

let rec first_cand b sr = function
  | [] -> None
  | w :: rest -> if cand b sr w then Some w else first_cand b sr rest

(* [fam] is one of the reader's own families *)
let verdict t b (op : Op.t) ls ~value ~fam =
  let sr = b.b_own.(slot t op.proc fam) and reader = op.proc in
  let sums = sums_of value ls.li_values in
  if any_valid t b sr ~fam ~reader sums then Read_rule.Valid
  else if value = 0 then
    (* virtual initial write: it precedes every operation *)
    let x = ls.li_touchers in
    let id =
      min_id
        (smallest_stamp b sr (-1) x.x_shared)
        (smallest_stamp b sr (-1) (index_reads x ~reader))
    in
    if id < 0 then Read_rule.Valid else Read_rule.Overwritten id
  else
    match first_cand b sr sums with
    | None -> Read_rule.No_matching_write
    | Some w -> Read_rule.Overwritten (interposer t b sr ~fam ~reader w)

(* --- the read rule on a fetch snapshot (partial view) ---------------- *)

(* Validity of a fetched read is membership of its value in the
   admissible set the runtime derived from the snapshot clock. For
   failure diagnostics the interposing write is named by the smallest
   live summary id of any admissible value (the admissible writes are
   exactly those the home had applied over the returned value); when no
   such summary has finalized yet the interposer is reported as [-1] —
   fetched diagnostics are best-effort, and the differential suite
   compares diagnostics on non-fetched reads only. *)
let fetched_verdict ls ~value fn =
  let admissible_interposer () =
    let ids =
      List.concat_map
        (fun v ->
          if v = value then []
          else List.map (fun s -> s.s_node.n_id) (sums_of v ls.li_values))
        fn.fn_admissible
    in
    match ids with
    | [] -> Read_rule.Overwritten (-1)
    | ids -> Read_rule.Overwritten (List.fold_left min max_int ids)
  in
  if value = 0 then
    if fn.fn_zero_ok then Read_rule.Valid else admissible_interposer ()
  else if List.mem value fn.fn_admissible then Read_rule.Valid
  else if sums_of value ls.li_values <> [] then admissible_interposer ()
  else Read_rule.No_matching_write

(* --- the read rule at a session point -------------------------------- *)

(* Replicates [Read_rule.check] under [Lattice.axioms_of (Session gs)]:
   the relation is the reads-from edges touching the reader plus the
   reader's own write→read (ryw) / read→read (mr) edges, so

   - a real candidate writer [w] reaches an interposer o(x)u only
     through one of the reader's own reads: w →rf r1(x)v →mr o →mr r,
     or (own write, ryw) w →ryw o →mr r;
   - against the virtual initial write, the reader's own earlier reads
     (mr) and writes (ryw) of another value interpose, as do the
     foreign writers of a value an earlier read returned (rf;mr).

   Ids are compared to pick the same (smallest-id) interposer as the
   offline scan. Under the unique-writes assumption of Section 3 the
   writers a read's verdict consulted are exactly the streamed
   summaries at its finalization. *)
let session_verdict t (op : Op.t) ls ~loc ~value =
  let st = t.sess.(op.proc) in
  let recs tbl =
    match Hashtbl.find_opt tbl loc with Some l -> List.rev !l | None -> []
  in
  let reads = recs st.se_reads and writes = recs st.se_writes in
  let cands =
    List.map (fun s -> (s.s_node.n_id, s.s_node.n_proc)) (sums_of value ls.li_values)
  in
  let min_id = function
    | [] -> None
    | ids -> Some (List.fold_left min max_int ids)
  in
  let interposers (w_id, w_proc) =
    if not t.sess_mr then []
    else
      let later_other_reads from_id =
        List.filter_map
          (fun r ->
            if r.sr_id > from_id && r.sr_value <> value then Some r.sr_id
            else None)
          reads
      in
      (match List.find_opt (fun r -> r.sr_value = value) reads with
      | Some rv -> later_other_reads rv.sr_id
      | None -> [])
      @
      if
        t.sess_ryw && w_proc = op.proc
        && List.exists (fun w -> w.sr_id = w_id) writes
      then later_other_reads w_id
      else []
  in
  let rec first_valid = function
    | [] -> None
    | c :: rest -> if interposers c = [] then Some c else first_valid rest
  in
  match first_valid cands with
  | Some _ -> Read_rule.Valid
  | None -> (
    if value = 0 then
      (* virtual initial write *)
      let virt =
        (if t.sess_mr then
           List.concat_map
             (fun r ->
               if r.sr_value <> value then r.sr_id :: r.sr_writers else [])
             reads
         else [])
        @
        if t.sess_ryw then
          List.filter_map
            (fun w -> if w.sr_value <> value then Some w.sr_id else None)
            writes
        else []
      in
      match min_id virt with
      | None -> Read_rule.Valid
      | Some o -> Read_rule.Overwritten o
    else
      match cands with
      | [] -> Read_rule.No_matching_write
      | c :: _ -> (
        match min_id (interposers c) with
        | Some o -> Read_rule.Overwritten o
        | None -> assert false))

(* the reader's own finalized memory operations, per location, in
   program order — consulted by [session_verdict] for later reads;
   awaits never carry session edges: they are neither memory reads (mr)
   nor write-like (ryw) *)
let session_push t (op : Op.t) ~reads loc r =
  let st = t.sess.(op.proc) in
  let tbl = if reads then st.se_reads else st.se_writes in
  match Hashtbl.find_opt tbl loc with
  | Some l -> l := r :: !l
  | None -> Hashtbl.add tbl loc (ref [ r ])

(* --- finalization ---------------------------------------------------- *)

(* raise own-family slot [k] to cover [a] ⊔ {c ↦ r}; the strict entry at
   the operation's own chain is its rank *)
let raise_to t b k a c r =
  let cur = b.b_own.(k) in
  if not (covers cur b.b_chain b.b_rank a c r) then begin
    if b.b_own == b.b_base then b.b_own <- Array.copy b.b_base;
    let d =
      if cur != b.b_base.(k) then cur
      else begin
        let d = Array.make t.ch 0 in
        join_into d cur;
        b.b_own.(k) <- d;
        d
      end
    in
    join_into d a;
    if c >= 0 && r > d.(c) then d.(c) <- r
  end

let rec raise_po t b k = function
  | [] -> ()
  | (c, r) :: rest ->
    raise_to t b k [||] c r;
    raise_po t b k rest

(* a sync or reads-from edge from [s]: it is in every family of the
   operation's process [p] (it has an endpoint there) and carries [s]'s
   own families that [p] lacks into the foreign map. Clocks are closed
   under their families' pasts, so a family whose clock already holds
   [s] holds all [s] brings to it. *)
let from_edge t b (s : node) =
  let p = b.b_proc in
  let fams = t.own.(p) in
  for k = 0 to Array.length fams - 1 do
    let f = fams.(k) in
    let ks = slot t s.n_proc f in
    if pt b.b_own.(k) b.b_chain b.b_rank s.n_chain > s.n_rank then ()
    else if ks >= 0 then raise_to t b k s.n_own.(ks) s.n_chain (s.n_rank + 1)
    else begin
      raise_to t b k [||] s.n_chain (s.n_rank + 1);
      raise_po t b k s.n_po;
      match IMap.find f s.n_far with
      | e -> raise_to t b k e.fa e.fc e.fr
      | exception Not_found -> ()
    end
  done;
  if s.n_proc <> p then begin
    let sf = t.own.(s.n_proc) in
    for ks = 1 to Array.length sf - 1 do
      if slot t p sf.(ks) < 0 then
        b.b_far <- far_add b.b_far sf.(ks) s.n_own.(ks) s.n_chain (s.n_rank + 1)
    done
  end

(* a program-order edge from [n] on another chain of the same process:
   in every family, so everything joins *)
let from_chain t b (n : node) =
  for k = 0 to Array.length b.b_own - 1 do
    raise_to t b k n.n_own.(k) n.n_chain (n.n_rank + 1)
  done;
  b.b_po <- po_join b.b_po (po_join n.n_po [ (n.n_chain, n.n_rank + 1) ]);
  b.b_far <- IMap.union (fun _ x y -> Some (far_join x y)) b.b_far n.n_far

let rec chain_pred chain = function
  | [] -> raise Not_found
  | Stream.U u :: rest ->
    let n = Stream.state u in
    if n.n_chain = chain then n else chain_pred chain rest
  | (Stream.S _ | Stream.RF _) :: rest -> chain_pred chain rest

let rec fold_edges t b = function
  | [] -> ()
  | e :: rest ->
    (match e with
    | Stream.U u ->
      let n = Stream.state u in
      if n.n_chain <> b.b_chain then from_chain t b n
    | Stream.S s | Stream.RF s -> from_edge t b (Stream.state s));
    fold_edges t b rest

(* [op]'s strict own-family clocks plus its program-order clock and
   foreign-family map, folded from its covering in-edges into [t.b] *)
let fold_in_edges t (info : node Stream.info) =
  let b = t.b and p = info.Stream.op.Op.proc in
  b.b_proc <- p;
  b.b_chain <- info.Stream.chain;
  b.b_rank <- info.Stream.rank;
  (match chain_pred info.Stream.chain info.Stream.in_edges with
  | n ->
    b.b_base <- n.n_own;
    b.b_po <- n.n_po;
    b.b_far <- n.n_far
  | exception Not_found ->
    b.b_base <- t.empty.(p);
    b.b_po <- [];
    b.b_far <- IMap.empty);
  b.b_own <- b.b_base;
  fold_edges t b info.Stream.in_edges

(* the finalized operation's node; it shares its chain predecessor's
   arrays when it learned nothing new *)
let node_of (op : Op.t) b =
  { n_id = op.id; n_proc = op.proc; n_chain = b.b_chain; n_rank = b.b_rank; n_own = b.b_own;
    n_po = b.b_po; n_far = b.b_far }

let stamp_id s = s.t_id
let node_id n = n.n_id

let rec follow (o : node) ~reader = function
  | [] -> ()
  | w :: rest ->
    let wn = w.s_node in
    if wn.n_id <> o.n_id && own_get o 0 wn.n_chain > wn.n_rank then
      index_add w.s_followers node_id ~reader o;
    follow o ~reader rest

(* follow the summaries of every live value other than [u] or [v] *)
let rec follow_values o ~reader u v = function
  | [] -> ()
  | vs :: rest ->
    if vs.vs_value <> u || vs.vs_value <> v then follow o ~reader vs.vs_sums;
    follow_values o ~reader u v rest

(* index [o], which touches [ls]'s location carrying the values [u] and
   [v] (equal but for a decrement), as a potential interposer *)
let register ls (o : node) ~reader u v =
  if (not ls.li_dead) && (u <> 0 || v <> 0) then
    index_add ls.li_touchers stamp_id ~reader
      { t_id = o.n_id; t_chain = o.n_chain; t_rank = o.n_rank };
  follow_values o ~reader u v ls.li_values

let add_summary ls v node =
  let s = { s_node = node; s_followers = new_index () } in
  let rec go = function
    | [] -> ls.li_values <- { vs_value = v; vs_sums = [ s ] } :: ls.li_values
    | vs :: rest -> if vs.vs_value = v then vs.vs_sums <- insert_summary s vs.vs_sums else go rest
  in
  go ls.li_values

let check_read t (op : Op.t) ls ~loc ~label ~value =
  t.reads_checked <- t.reads_checked + 1;
  (match label with
  | Op.PRAM -> t.pram_reads <- t.pram_reads + 1
  | Op.Causal -> t.causal_reads <- t.causal_reads + 1
  | Op.Group _ -> t.group_reads <- t.group_reads + 1);
  (* a queued fetch note matches this read iff it heads the process's
     note queue with the same location: notes are enqueued immediately
     before the read is recorded (atomically — no suspension between),
     and per-process finalization order is program order, so the k-th
     noted read of a process finalizes k-th among its noted reads *)
  let fetch =
    if Hashtbl.length t.fetch_notes = 0 then None
    else
      match Hashtbl.find_opt t.fetch_notes op.proc with
      | Some q when (not (Queue.is_empty q)) && (Queue.peek q).fn_loc = loc ->
        Some (Queue.pop q)
      | _ -> None
  in
  let v =
    match (fetch, t.t_mode) with
    | Some fn, _ ->
      t.fetched <- op.id :: t.fetched;
      t.n_fetched <- t.n_fetched + 1;
      fetched_verdict ls ~value fn
    | None, Uniform (Model.Session _) -> session_verdict t op ls ~loc ~value
    | None, _ ->
      let fam =
        match t.t_mode with
        | Per_label | Uniform Model.Mixed -> fam_of_label t ~reader:op.proc label
        | Uniform Model.Causal -> fam_causal
        | Uniform Model.PRAM -> 1 + op.proc
        | Uniform (Model.Group g) ->
          fam_of_label t ~reader:op.proc
            (Op.Group (List.sort_uniq compare (op.proc :: g)))
        | Uniform _ -> assert false (* rejected by [make] *)
      in
      verdict t t.b op ls ~value ~fam
  in
  match v with
  | Read_rule.Valid -> ()
  | v -> t.failures <- { Model.read_id = op.id; label; verdict = v } :: t.failures

(* a write-like operation installing [v] (a decrement observed [observed]) *)
let write t (op : Op.t) b loc v ~observed =
  let ls = lstate t loc in
  if Array.length t.sess > 0 then
    session_push t op ~reads:false loc { sr_id = op.id; sr_value = v; sr_writers = [] };
  let n = node_of op b in
  register ls n ~reader:(-1) v observed;
  add_summary ls v n;
  n

(* Validate a read before it registers as its own interposer, then index
   the operation at the location it touches and summarize a writer. *)
let finalize t (info : node Stream.info) =
  let op = info.Stream.op in
  t.ops_checked <- t.ops_checked + 1;
  if info.Stream.chain + 1 > t.ch then t.ch <- info.Stream.chain + 1;
  fold_in_edges t info;
  let b = t.b in
  match op.kind with
  | Op.Read { loc; label; value } ->
    let ls = lstate t loc in
    check_read t op ls ~loc ~label ~value;
    if Array.length t.sess > 0 then
      session_push t op ~reads:true loc
        { sr_id = op.id; sr_value = value;
          sr_writers = List.map (fun s -> s.s_node.n_id) (sums_of value ls.li_values) };
    let n = node_of op b in
    register ls n ~reader:op.proc value value;
    n
  | Op.Write { loc; value } -> write t op b loc value ~observed:value
  | Op.Decrement { loc; amount; observed } -> write t op b loc (observed - amount) ~observed
  | Op.Await { loc; value } ->
    let n = node_of op b in
    register (lstate t loc) n ~reader:(-1) value value;
    n
  | Op.Read_lock _ | Op.Read_unlock _ | Op.Write_lock _ | Op.Write_unlock _
  | Op.Barrier _ | Op.Barrier_group _ ->
    node_of op b

let dead t loc value =
  match Locs.find t.locs loc with
  | ls ->
    ls.li_values <- List.filter (fun vs -> vs.vs_value <> value) ls.li_values;
    if value = 0 then begin
      ls.li_dead <- true;
      ls.li_touchers.x_shared <- [];
      ls.li_touchers.x_reads <- IMap.empty
    end
  | exception Not_found -> if value = 0 then (lstate t loc).li_dead <- true

let callbacks t =
  {
    Stream.on_finalize = (fun info -> finalize t info);
    on_retire = ignore;
    on_dead_value = (fun ~loc ~value -> dead t loc value);
    on_end = (fun () -> ());
  }

(* --- public API ------------------------------------------------------ *)

let create ~procs ?groups ?model () =
  let t = make ~procs ?groups ?model () in
  let e = Stream.create ~procs (callbacks t) in
  t.t_engine <- Some e;
  t

let engine t =
  match t.t_engine with
  | Some e -> e
  | None -> invalid_arg "Online.engine: checker has no engine"

let sink t = Stream.sink (engine t)
let failures t = List.sort (fun a b -> compare a.Model.read_id b.Model.read_id) t.failures
let is_consistent t = t.failures = []

let note_fetch t ~proc ~loc ~admissible ~zero_ok =
  if proc < 0 || proc >= t.t_procs then
    invalid_arg "Online.note_fetch: process out of range";
  let note = { fn_loc = loc; fn_admissible = admissible; fn_zero_ok = zero_ok } in
  match Hashtbl.find_opt t.fetch_notes proc with
  | Some q -> Queue.push note q
  | None ->
    let q = Queue.create () in
    Queue.push note q;
    Hashtbl.add t.fetch_notes proc q

let fetched_ids t = List.sort compare t.fetched

let stats t =
  let live =
    Locs.fold
      (fun _ ls acc ->
        List.fold_left (fun acc vs -> acc + List.length vs.vs_sums) acc ls.li_values)
      t.locs 0
  in
  let e = t.t_engine in
  {
    ops_checked = t.ops_checked;
    reads_checked = t.reads_checked;
    pram_reads = t.pram_reads;
    causal_reads = t.causal_reads;
    group_reads = t.group_reads;
    fetched_reads = t.n_fetched;
    failure_count = List.length t.failures;
    chains = t.ch;
    max_resident = (match e with Some e -> Stream.max_resident e | None -> 0);
    live_summaries = live;
  }

let attach_metrics t reg =
  let module M = Mc_obs.Metrics in
  let fn name help f =
    M.Registry.gauge_fn reg ~help name (fun () -> float_of_int (f (stats t)))
  in
  fn "mc_online_ops_checked" "operations validated by the online checker" (fun s ->
      s.ops_checked);
  fn "mc_online_reads_checked" "reads validated" (fun s -> s.reads_checked);
  fn "mc_online_failures" "invalid reads found" (fun s -> s.failure_count);
  fn "mc_online_chains" "concurrency chains allocated" (fun s -> s.chains);
  fn "mc_online_window_high_water" "high-water of the in-flight window" (fun s ->
      s.max_resident);
  fn "mc_online_live_summaries" "writer summaries not yet reclaimed" (fun s ->
      s.live_summaries)

let groups_of_history h =
  let acc = ref [] in
  Array.iter
    (fun (o : Op.t) ->
      match o.kind with
      | Op.Read { label = Op.Group g; _ } ->
        let sg = List.sort_uniq compare g in
        if not (List.mem sg !acc) then acc := sg :: !acc
      | _ -> ())
    (History.ops h);
  !acc

let check ?groups ?model h =
  let groups =
    match groups with Some g -> g | None -> groups_of_history h
  in
  let t = create ~procs:(History.procs h) ~groups ?model () in
  Stream.replay (engine t) h;
  t
