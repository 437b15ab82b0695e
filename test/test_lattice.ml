(* Tests of the axiom-parameterized consistency lattice (ISSUE 7):

   - algebra: [leq] is a preorder on the model pool with [Session []]
     at the bottom and [Linearizable] at the top; [meet]/[join] bound
     their arguments; [Group []] collapses to [PRAM]; [Mixed] is the
     interval [PRAM, Causal]; names round-trip through
     [of_string]/[to_string]; the documentation [ladder] never lists a
     strictly stronger model before a weaker one;
   - differential: on random histories with locks, barriers and all
     three read labels, [Lattice.verdict_at] equals [Read_rule.check]
     over the seed per-reader relations (Definitions 2 and 3, kept in
     test/oracle.ml) for every memory read, and
     [Lattice.failures] at the [Mixed] point is exactly the reads those
     relations reject at their own labels, labels included;
   - oracle: at every pool point [Lattice.failures] and
     [Lattice.closure_failures] equal the
     independent path of test/oracle.ml (Warshall, a restricted copy
     per reader, the read rule scanning every operation), read ids and
     verdicts alike, on random histories, on histories whose SC, cache
     and processor relations are cyclic, and on the Section-5 apps;
   - QCheck monotonicity: [leq m1 m2] implies the failing read-id set
     of [m1] is contained in that of [m2], across the whole pool
     including the witness-based SC/linearizable points;
   - restrictions: [Lattice.failures] replays [Online] at streamable
     points only within [Stream]'s restrictions; a repeated value, a
     written initial value, a reused barrier index, overlapping
     barriers, tied grant numbers and a cyclic history each take the
     closure engine, and the oracle comparison holds on both sides;
   - online: for every streamable point the online checker at that
     point reproduces the closure engine's verdicts
     ([Lattice.closure_failures], itself held to the Warshall oracle at
     every pool point), since [Lattice.failures] itself replays it, and
     so do one replay at all of them and one [Lattice.failures_at] call
     that adds a group with a member out of range (its error included);
   - Section-5 apps: the same differential + monotonicity sweep on
     recorded solver/EM/Cholesky executions;
   - static: [Static.analyze] infers weakest models at or below the
     paper's label assignment for every [Static_models] app, and the
     per-axiom proof trace reconstructs the inferred model. *)

module Op = Mc_history.Op
module History = Mc_history.History
module Recorder = Mc_history.Recorder
module Stream = Mc_history.Stream
module Lattice = Mc_consistency.Lattice
module Read_rule = Mc_consistency.Read_rule
module Online = Mc_consistency.Online

let check = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Random histories (the test_online generator, trimmed)               *)
(* ------------------------------------------------------------------ *)

type simple = {
  s_is_write : bool;
  s_loc : int;
  s_guess : int;
  s_label : int; (* 0 PRAM, 1 Causal, 2+ group selector *)
}

type choice =
  | Simple of simple
  | Section of bool * int * simple list (* write?, lock, body *)

type program = choice list list (* segments, separated by barriers *)

let simple_gen =
  QCheck.Gen.(
    map
      (fun (w, loc, g, l) ->
        { s_is_write = w; s_loc = loc; s_guess = g; s_label = l })
      (tup4 bool (int_bound 2) (int_bound 11) (int_bound 3)))

let choice_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun s -> Simple s) simple_gen);
        ( 2,
          map3
            (fun w lock body -> Section (w, lock, body))
            bool (int_bound 1)
            (list_size (int_bound 2) simple_gen) );
      ])

let programs_gen ~procs ~segments ~max_ops =
  QCheck.Gen.(
    list_size (return procs)
      (list_size (return segments) (list_size (int_bound max_ops) choice_gen)))

(* A recorded step: one operation with its grant number, or two
   overlapping operations of the process. *)
type step = One of int * Op.kind | Overlap of Op.kind * Op.kind

let one kind = One (-1, kind)
let w loc value = one (Op.Write { loc; value })
let rd label loc value = one (Op.Read { loc; label; value })

(* [prefix] is recorded first, in its order across processes; then each
   process's program, process by process *)
let history_of_programs ?(prefix = []) ~procs (progs : program list) =
  let next_value = ref 0 in
  let values = ref [ 0 ] in
  let collect_simple s =
    if s.s_is_write then begin
      incr next_value;
      values := !next_value :: !values
    end
  in
  List.iter
    (List.iter
       (List.iter (function
         | Simple s -> collect_simple s
         | Section (_, _, body) -> List.iter collect_simple body)))
    progs;
  let values = Array.of_list (List.rev !values) in
  let next_value = ref 0 in
  let lock_seq = Array.make 2 0 in
  let label_of proc l =
    match l with
    | 0 -> Op.PRAM
    | 1 -> Op.Causal
    | 2 -> Op.Group (List.sort_uniq compare [ proc; (proc + 1) mod procs ])
    | _ -> Op.Group (List.init procs Fun.id)
  in
  let step_of_simple proc s =
    let loc = "v" ^ string_of_int s.s_loc in
    if s.s_is_write then begin
      incr next_value;
      w loc !next_value
    end
    else rd (label_of proc s.s_label) loc values.(s.s_guess mod Array.length values)
  in
  let segments = List.length (List.hd progs) in
  let out = Array.make_matrix procs segments [] in
  for seg = 0 to segments - 1 do
    List.iteri
      (fun proc prog ->
        let choices = List.nth prog seg in
        let steps =
          List.concat_map
            (function
              | Simple s -> [ step_of_simple proc s ]
              | Section (wr, lock, body) ->
                let l = "m" ^ string_of_int lock in
                let s0 = lock_seq.(lock) in
                lock_seq.(lock) <- s0 + 2;
                let body = List.map (step_of_simple proc) body in
                if wr then (One (s0, Op.Write_lock l) :: body) @ [ One (s0 + 1, Op.Write_unlock l) ]
                else (One (s0, Op.Read_lock l) :: body) @ [ One (s0 + 1, Op.Read_unlock l) ])
            choices
        in
        out.(proc).(seg) <- steps)
      progs
  done;
  let r = Recorder.create ~procs () in
  let record proc = function
    | One (sync_seq, kind) -> ignore (Recorder.record r ~proc ~sync_seq kind)
    | Overlap (a, b) ->
      let ta = Recorder.start r ~proc in
      let tb = Recorder.start r ~proc in
      ignore (Recorder.finish r ta a);
      ignore (Recorder.finish r tb b)
  in
  List.iter (fun (proc, step) -> record proc step) prefix;
  for proc = 0 to procs - 1 do
    List.iter (record proc)
      (List.concat
         (List.init segments (fun seg ->
              out.(proc).(seg) @ if seg < segments - 1 then [ one (Op.Barrier seg) ] else [])))
  done;
  Recorder.history r

let sync_history_arb ~procs ~segments ~max_ops =
  QCheck.make
    ~print:(fun progs ->
      Format.asprintf "%a" History.pp (history_of_programs ~procs progs))
    (programs_gen ~procs ~segments ~max_ops)

let acyclic h = QCheck.assume (History.causality_is_acyclic h)

(* ------------------------------------------------------------------ *)
(* Lattice algebra                                                     *)
(* ------------------------------------------------------------------ *)

(* the ladder plus session/group points off the documentation path *)
let pool =
  Lattice.ladder
  @ Lattice.
      [
        Session [];
        Session [ Read_your_writes ];
        Session [ Monotonic_reads ];
        Group [];
        Group [ 0; 1 ];
        Group [ 0; 1; 2 ];
      ]

let test_leq_preorder () =
  List.iter
    (fun m ->
      check (Lattice.to_string m ^ " reflexive") true (Lattice.leq m m))
    pool;
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          List.iter
            (fun c ->
              if Lattice.leq a b && Lattice.leq b c then
                check
                  (Printf.sprintf "transitive %s <= %s <= %s"
                     (Lattice.to_string a) (Lattice.to_string b)
                     (Lattice.to_string c))
                  true (Lattice.leq a c))
            pool)
        pool)
    pool

let test_bounds () =
  List.iter
    (fun m ->
      check ("bottom below " ^ Lattice.to_string m) true
        (Lattice.leq (Lattice.Session []) m);
      check (Lattice.to_string m ^ " below top") true
        (Lattice.leq m Lattice.Linearizable))
    pool

let test_meet_join () =
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let m = Lattice.meet a b and j = Lattice.join a b in
          let name op =
            Printf.sprintf "%s(%s,%s)" op (Lattice.to_string a)
              (Lattice.to_string b)
          in
          check (name "meet below left") true (Lattice.leq m a);
          check (name "meet below right") true (Lattice.leq m b);
          check (name "join above left") true (Lattice.leq a j);
          check (name "join above right") true (Lattice.leq b j);
          check (name "meet commutes") true
            (Lattice.equal m (Lattice.meet b a));
          check (name "join commutes") true
            (Lattice.equal j (Lattice.join b a)))
        pool)
    pool

let test_special_points () =
  check "Group [] = PRAM" true Lattice.(equal (Group []) PRAM);
  check "PRAM <= Mixed" true Lattice.(leq PRAM Mixed);
  check "Mixed <= Causal" true Lattice.(leq Mixed Causal);
  check "Causal not <= Mixed" false Lattice.(leq Causal Mixed);
  check "Mixed not <= PRAM" false Lattice.(leq Mixed PRAM);
  check "session pointwise" true
    Lattice.(leq (Session [ Read_your_writes ]) (Session [ Read_your_writes; Monotonic_reads ]));
  check "session incomparable" false
    Lattice.(leq (Session [ Read_your_writes ]) (Session [ Monotonic_reads ]));
  check "group inclusion" true Lattice.(leq (Group [ 0; 1 ]) (Group [ 0; 1; 2 ]));
  check "slow below pram and cache" true
    Lattice.(leq Slow PRAM && leq Slow Cache);
  check "processor above pram and cache" true
    Lattice.(leq PRAM Processor && leq Cache Processor)

let test_names_round_trip () =
  List.iter
    (fun m ->
      match Lattice.of_string (Lattice.to_string m) with
      | Ok m' ->
        check ("round trip " ^ Lattice.to_string m) true (Lattice.equal m m')
      | Error e -> Alcotest.failf "%s does not parse: %s" (Lattice.to_string m) e)
    pool;
  (match Lattice.of_string "no-such-model" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "junk name parsed");
  check "lin alias" true
    (Lattice.of_string "lin" = Ok Lattice.Linearizable)

let test_ladder_is_linear_extension () =
  (* a strictly stronger model never appears before a weaker one *)
  let l = Array.of_list Lattice.ladder in
  check "nine points" true (Array.length l = 9);
  Array.iteri
    (fun i a ->
      Array.iteri
        (fun j b ->
          if i < j then
            check
              (Printf.sprintf "%s before %s" (Lattice.to_string a)
                 (Lattice.to_string b))
              false
              (Lattice.leq b a && not (Lattice.leq a b)))
        l)
    l

(* ------------------------------------------------------------------ *)
(* Differential against the seed relations                             *)
(* ------------------------------------------------------------------ *)

let seed_verdict h (o : Op.t) label =
  let rel =
    match label with
    | Op.PRAM -> Oracle.pram_relation h o.Op.proc
    | Op.Causal -> Oracle.causal_relation h o.Op.proc
    | Op.Group g -> Oracle.group_relation h ~reader:o.Op.proc ~group:g
  in
  Read_rule.check h rel ~read_id:o.Op.id

let differential_ok h =
  Array.for_all
    (fun (o : Op.t) ->
      match o.Op.kind with
      | Op.Read { label; _ } ->
        let labels =
          Op.PRAM :: Op.Causal
          :: (match label with Op.Group _ -> [ label ] | _ -> [])
        in
        List.for_all
          (fun l ->
            Lattice.verdict_at h l ~read_id:o.Op.id = seed_verdict h o l)
          labels
        && Lattice.verdict h Lattice.Mixed ~read_id:o.Op.id
           = seed_verdict h o label
      | _ -> true)
    (History.ops h)

let mixed_point_matches_seed h =
  let seed =
    List.filter_map
      (fun (o : Op.t) ->
        match o.Op.kind with
        | Op.Read { label; _ } -> (
          match seed_verdict h o label with
          | Read_rule.Valid -> None
          | verdict -> Some { Lattice.read_id = o.Op.id; label; verdict })
        | _ -> None)
      (Array.to_list (History.ops h))
  in
  Lattice.failures h Lattice.Mixed = seed

let lattice_diff_random =
  QCheck.Test.make ~name:"verdict_at = seed relations on random histories"
    ~count:300
    (sync_history_arb ~procs:3 ~segments:2 ~max_ops:4)
    (fun progs ->
      let h = history_of_programs ~procs:3 progs in
      acyclic h;
      differential_ok h && mixed_point_matches_seed h)

(* ------------------------------------------------------------------ *)
(* Monotonicity: leq m1 m2 => failures m1 subset of failures m2        *)
(* ------------------------------------------------------------------ *)

let failing_ids h m =
  List.filter_map
    (fun (f : Lattice.failure) ->
      if f.Lattice.verdict = Read_rule.Valid then None
      else Some f.Lattice.read_id)
    (Lattice.failures h m)

let subset a b = List.for_all (fun x -> List.mem x b) a

let monotone_ok h =
  let fails = List.map (fun m -> (m, failing_ids h m)) pool in
  List.for_all
    (fun (m1, f1) ->
      List.for_all
        (fun (m2, f2) ->
          (not (Lattice.leq m1 m2)) || subset f1 f2
          || begin
               Format.eprintf "monotonicity broken: %a <= %a@.%a@."
                 Lattice.pp m1 Lattice.pp m2 History.pp h;
               false
             end)
        fails)
    fails

let lattice_monotone =
  QCheck.Test.make ~name:"leq implies failure-set inclusion" ~count:200
    (sync_history_arb ~procs:3 ~segments:2 ~max_ops:4)
    (fun progs ->
      let h = history_of_programs ~procs:3 progs in
      acyclic h;
      monotone_ok h)

(* ------------------------------------------------------------------ *)
(* Online at lattice points                                            *)
(* ------------------------------------------------------------------ *)

let streamable_pool =
  List.filter Online.supports pool

let test_supports () =
  let expect m v =
    check ("supports " ^ Lattice.to_string m) v (Online.supports m)
  in
  List.iter
    (fun m -> expect m true)
    Lattice.
      [ Causal; PRAM; Mixed; Group [ 0; 1 ]; Session []; Session [ Read_your_writes ] ];
  List.iter
    (fun m -> expect m false)
    Lattice.[ SC; Linearizable; Processor; Cache; Slow ]

(* the closure engine: [Lattice.failures] itself replays [Online] at
   these points *)
let online_uniform_ok h =
  let groups = Online.groups_of_history h in
  List.for_all
    (fun m ->
      Online.failures (Online.check ~groups ~points:[ m ] h) = Lattice.closure_failures h m
      || begin
           Format.eprintf "online disagrees under %a:@.%a@." Lattice.pp m
             History.pp h;
           false
         end)
    streamable_pool

let closure_result h m =
  match Lattice.closure_failures h m with
  | fs -> Ok fs
  | exception Invalid_argument msg -> Error msg

(* Mixed, Causal, PRAM, the four session points, each group (the
   history's and the pool's) and a group with a member out of range:
   one [Online.check] replay at the points in range and one
   [Lattice.failures_at] call at all of them give each point the
   closure engine's result, error included *)
let multi_point_ok h =
  let groups = Online.groups_of_history h in
  let in_range =
    Lattice.
      [
        Mixed;
        Causal;
        PRAM;
        Session [];
        Session [ Read_your_writes ];
        Session [ Monotonic_reads ];
        Session [ Read_your_writes; Monotonic_reads ];
      ]
    @ List.map (fun g -> Lattice.Group g) (groups @ [ []; [ 0; 1 ]; [ 0; 1; 2 ] ])
  in
  let points = in_range @ [ Lattice.Group [ 0; History.procs h ] ] in
  let agree engine ms results =
    List.for_all2
      (fun m got ->
        got = closure_result h m
        || begin
             Format.eprintf "%s disagrees under %a:@.%a@." engine Lattice.pp m History.pp h;
             false
           end)
      ms results
  in
  agree "one replay" in_range
    (List.map Result.ok (Online.point_failures (Online.check ~groups ~points:in_range h)))
  && agree "failures_at" points (Lattice.failures_at h points)

let online_uniform_diff =
  QCheck.Test.make ~name:"uniform online = closure verdicts" ~count:200
    (sync_history_arb ~procs:3 ~segments:2 ~max_ops:4)
    (fun progs ->
      let h = history_of_programs ~procs:3 progs in
      acyclic h;
      online_uniform_ok h && multi_point_ok h)

(* ------------------------------------------------------------------ *)
(* Oracle: Warshall, a restricted copy per reader, a full read scan    *)
(* ------------------------------------------------------------------ *)

let failure_pairs =
  List.map (fun (f : Lattice.failure) -> (f.Lattice.read_id, f.Lattice.verdict))

let pp_pairs fmt l =
  List.iter
    (fun (id, v) -> Format.fprintf fmt "read %d: %a@ " id Read_rule.pp_verdict v)
    l

(* identical failures (read ids and verdicts, [Overwritten] ids included)
   from [Lattice.failures] and from the closure engine alone at every
   pool point, and [Lattice.relation] equal to the oracle's restricted
   relation for every reader *)
let oracle_ok h =
  let oracle = Oracle.Lattice.create h in
  List.for_all
    (fun m ->
      let want = Oracle.Lattice.failures oracle m in
      List.for_all
        (fun (engine, failures) ->
          let got = failure_pairs (failures h m) in
          got = want
          || begin
               Format.eprintf "@[<v>%s at %a disagrees with the oracle:@ got  %a@ want %a@ %a@]@."
                 engine Lattice.pp m pp_pairs got pp_pairs want History.pp h;
               false
             end)
        [ ("failures", Lattice.failures); ("closure_failures", Lattice.closure_failures) ])
    pool
  && List.for_all
       (fun m ->
         match m with
         | Lattice.Mixed | Lattice.Group _ -> true
         | m ->
           let ax = Lattice.axioms_of m in
           List.for_all
             (fun reader ->
               Mc_util.Relation.equal
                 (Lattice.relation h ax ~reader)
                 (Oracle.of_matrix (Oracle.Lattice.relation oracle ax ~reader)))
             (List.init (History.procs h) Fun.id))
       pool

let oracle_random =
  QCheck.Test.make ~name:"failures = Warshall oracle on random histories"
    ~count:150
    (sync_history_arb ~procs:3 ~segments:2 ~max_ops:4)
    (fun progs -> oracle_ok (history_of_programs ~procs:3 progs))

(* a prefix that closes a cycle through the sim-time write orders: p0
   reads p1's write of g, which is recorded right after p0's two prefix
   operations, then writes g itself; that write has the lower id, so the
   global and the per-location write chains both lead from it back to
   p1's write *)
let cycle_prefix =
  [ (0, rd Op.Causal "g" 1_000_001); (0, w "g" 1_000_002); (1, w "g" 1_000_001) ]

let cyclic_at h m =
  let edges = Oracle.Lattice.edges (Oracle.Lattice.create h) (Lattice.axioms_of m) ~reader:0 in
  let c = Oracle.warshall_matrix edges in
  Array.exists Fun.id (Array.mapi (fun i row -> row.(i)) c)

let oracle_cyclic =
  QCheck.Test.make ~name:"failures = Warshall oracle when SC relations are cyclic"
    ~count:100
    (sync_history_arb ~procs:3 ~segments:2 ~max_ops:4)
    (fun progs ->
      let h = history_of_programs ~prefix:cycle_prefix ~procs:3 progs in
      List.for_all (cyclic_at h) Lattice.[ SC; Linearizable; Cache; Processor ]
      && oracle_ok h)

(* One prefix per restriction of the stream ([Stream.meets_restrictions]),
   plus a clean one, and a cyclic one that meets them but makes the
   replay raise. Each restricted one is built so that a replay would be
   wrong at some streamable point:
   - a repeated value, or a written-back initial value: the stream links
     p1's read of r (of z) only to the writer that completed before it
     (for the initial value, to none), so it misses p2's write of s,
     which reads-from orders before p1's read of s through p2's later
     write of the same value;
   - a reused barrier index merges both rounds into one episode offline,
     which orders p0's write of q before p1's read of q, while the
     stream closes the episode after the first round;
   - overlapping barriers: p0's write of o precedes its barrier 101,
     whose episode holds p1's barrier 101 and so precedes p1's read of
     o, but p0's overlapping barrier 102 completes first and the stream
     no longer takes the write as a source of episode 101;
   - tied grant numbers (which the DSL allows): offline, p1's write
     lock of k sorts next to p0's and opens the next epoch, so p0's
     write of t is not before p1's read of t; the stream's reorder
     buffer holds p1's lock until the end and puts it after p0's
     unlock, which orders the write before the read.
   [Lattice.failures] must equal the oracle at every pool point either
   way. *)
type variant =
  | Clean
  | Repeated
  | Initial
  | Reused_barrier
  | Overlapping_barriers
  | Tied_grant
  | Cyclic

let variants =
  [
    (Clean, "clean");
    (Repeated, "repeated value");
    (Initial, "written initial value");
    (Reused_barrier, "reused barrier index");
    (Overlapping_barriers, "overlapping barriers");
    (Tied_grant, "tied grant numbers");
    (Cyclic, "cyclic");
  ]

let variant_prefix v =
  let bar k = one (Op.Barrier k) in
  let round = [ (0, bar 100); (1, bar 100); (2, bar 100) ] in
  match v with
  | Clean -> []
  | Repeated ->
    [ (0, w "r" 1_000_100); (1, rd Op.Causal "r" 1_000_100); (1, rd Op.Causal "s" 0);
      (2, w "s" 1_000_101); (2, w "r" 1_000_100) ]
  | Initial ->
    [ (1, rd Op.Causal "z" 0); (1, rd Op.Causal "s" 0); (2, w "s" 1_000_102); (2, w "z" 0) ]
  | Reused_barrier -> round @ [ (0, w "q" 1_000_103); (1, rd Op.Causal "q" 0) ] @ round
  | Overlapping_barriers ->
    [ (1, Overlap (Op.Barrier 101, Op.Barrier 100)); (0, bar 100); (0, w "o" 1_000_104);
      (1, rd Op.Causal "o" 0); (0, Overlap (Op.Barrier 102, Op.Barrier 101)) ]
  | Tied_grant ->
    [ (0, One (0, Op.Write_lock "k")); (0, w "t" 1_000_105); (0, One (1, Op.Write_unlock "k"));
      (1, One (0, Op.Write_lock "k")); (1, rd Op.Causal "t" 0); (1, One (2, Op.Write_unlock "k")) ]
  | Cyclic ->
    [ (0, rd Op.Causal "c" 1_000_200); (0, w "d" 1_000_201); (1, rd Op.PRAM "d" 1_000_201);
      (1, w "c" 1_000_200) ]

(* which side of the predicate and of the replay [h] takes *)
let sides_ok v h =
  let meets = Stream.meets_restrictions h in
  let replays =
    meets
    &&
    match Online.check ~points:[ Lattice.Causal ] h with
    | _ -> true
    | exception Invalid_argument _ -> false
  in
  meets = (v = Clean || v = Cyclic)
  && replays = (v = Clean && History.causality_is_acyclic h)

let oracle_restrictions =
  QCheck.Test.make ~name:"failures = Warshall oracle off the stream restrictions"
    ~count:150
    (QCheck.pair
       (QCheck.make ~print:(fun (_, name) -> name) (QCheck.Gen.oneofl variants))
       (sync_history_arb ~procs:3 ~segments:2 ~max_ops:3))
    (fun ((v, _), progs) ->
      let h = history_of_programs ~prefix:(variant_prefix v) ~procs:3 progs in
      sides_ok v h && oracle_ok h)

(* a replay forced past the predicate: the closure engine's failures at
   every streamable pool point? *)
let replay_agrees h =
  List.for_all
    (fun m ->
      match Online.check ~points:[ m ] h with
      | chk -> Online.failures chk = Lattice.closure_failures h m
      | exception Invalid_argument _ -> false)
    streamable_pool

(* each variant on its own, so both sides of the predicate and of the
   replay are taken on every run, and each restriction is shown to be
   needed *)
let test_restriction_sides () =
  List.iter
    (fun (v, name) ->
      let h = history_of_programs ~prefix:(variant_prefix v) ~procs:3 [ [ [] ]; [ [] ]; [ [] ] ] in
      check (name ^ ": predicate and replay") true (sides_ok v h);
      check (name ^ ": Warshall oracle") true (oracle_ok h);
      match v with
      | Clean -> check (name ^ ": replay agrees") true (replay_agrees h)
      | Repeated | Initial | Reused_barrier | Overlapping_barriers | Tied_grant ->
        check (name ^ ": a replay would be wrong") false (replay_agrees h)
      | Cyclic -> ())
    variants

(* p0 starts a write of x = 1 and a PRAM read of x that returns 0, and
   the write responds first. The two overlap, so program order does not
   put the write before the read and read-your-writes asks nothing of
   it; the checker's session rule, reading p0's operations in
   finalization order, would take the write as earlier. Session points
   take the closures on such a history, and every point agrees with
   them. *)
let test_session_overlapping () =
  let r = Recorder.create ~procs:1 () in
  let w = Recorder.start r ~proc:0 in
  let rd = Recorder.start r ~proc:0 in
  ignore (Recorder.finish r w (Op.Write { loc = "x"; value = 1 }));
  ignore (Recorder.finish r rd (Op.Read { loc = "x"; label = Op.PRAM; value = 0 }));
  let h = Recorder.history r in
  check "meets the stream's restrictions" true (Stream.meets_restrictions h);
  check "not sequential" false (History.sequential h);
  List.iter
    (fun m ->
      check
        ("failures = closures at " ^ Lattice.to_string m)
        true
        (Lattice.failures h m = Lattice.closure_failures h m))
    Lattice.
      [
        Session [ Read_your_writes ];
        Session [ Read_your_writes; Monotonic_reads ];
        Session [ Monotonic_reads ];
        Session [];
        PRAM;
        Causal;
      ];
  check "no read-your-writes failure" true
    (Lattice.failures h (Lattice.Session [ Lattice.Read_your_writes ]) = [])

(* ------------------------------------------------------------------ *)
(* Section-5 applications                                              *)
(* ------------------------------------------------------------------ *)

module Engine = Mc_sim.Engine
module Runtime = Mc_dsm.Runtime
module Config = Mc_dsm.Config
module Api = Mc_dsm.Api
module Solver = Mc_apps.Linear_solver
module Em = Mc_apps.Em_field
module Sparse = Mc_apps.Sparse_spd
module Cholesky = Mc_apps.Cholesky

let record_app ?(procs = 3) f =
  let engine = Engine.create () in
  let cfg = { (Config.default ~procs) with Config.record = true } in
  let rt = Runtime.create engine cfg in
  f rt (Api.spawn rt);
  ignore (Runtime.run rt);
  Runtime.history rt

let app_sweep name h =
  check (name ^ ": failures = Warshall oracle") true (oracle_ok h);
  check (name ^ ": verdict_at = seed") true (differential_ok h);
  check (name ^ ": mixed point = seed Mixed") true (mixed_point_matches_seed h);
  check (name ^ ": monotone on the pool") true (monotone_ok h);
  check (name ^ ": uniform online = offline") true (online_uniform_ok h)

let test_app_solver () =
  let problem = Solver.Problem.generate ~seed:42 ~n:8 in
  let h =
    record_app ~procs:4 (fun _ spawn ->
        ignore (Solver.launch ~spawn ~procs:4 ~variant:Solver.Barrier_pram problem))
  in
  app_sweep "solver barrier" h

let test_app_em () =
  let params = { Em.rows = 9; cols = 5; steps = 3; seed = 5 } in
  let h =
    record_app (fun _ spawn -> ignore (Em.launch ~spawn ~procs:3 params))
  in
  app_sweep "em field" h

let test_app_cholesky () =
  let m = Sparse.generate ~seed:11 ~n:10 ~density:0.3 in
  let h =
    record_app (fun _ spawn ->
        ignore (Cholesky.launch ~spawn ~procs:3 ~variant:Cholesky.Lock_based m))
  in
  app_sweep "cholesky locks" h

(* ------------------------------------------------------------------ *)
(* Static weakest-model inference                                      *)
(* ------------------------------------------------------------------ *)

module P = Mc_static.Pir
module Cls = Mc_static.Classify
module St = Mc_static.Static
module Models = Mc_apps.Static_models

(* the model implied by a read's declared label: the static analysis
   must never require more than the paper's own label assignment *)
let lmodel_of_label = function
  | P.L_pram -> Cls.M_pram
  | P.L_causal -> Cls.M_causal
  | P.L_group ts -> Cls.M_group ts

let declared_join (rep : St.report) =
  List.fold_left
    (fun acc (rr : Cls.read_report) ->
      Cls.model_join acc (lmodel_of_label rr.Cls.declared))
    (Cls.M_session { ryw = false; mr = false })
    rep.St.reads

let static_apps () =
  [
    ("solver-barrier", Models.solver_barrier, Some "pram");
    ("solver-handshake-causal", Models.solver_handshake ~labels:Models.Hs_causal (), None);
    ("solver-handshake-group", Models.solver_handshake ~labels:Models.Hs_group (), None);
    ("em-field", Models.em_field, Some "pram");
    ("cholesky", Models.cholesky, Some "causal");
  ]

let test_static_weakest_below_labels () =
  List.iter
    (fun (name, prog, exact) ->
      let rep = St.analyze prog in
      let weakest = rep.St.lattice.Cls.weakest in
      check
        (name ^ ": weakest <= declared labels")
        true
        (Cls.model_leq weakest (declared_join rep));
      match exact with
      | None -> ()
      | Some s ->
        Alcotest.(check string)
          (name ^ ": weakest model")
          s
          (Cls.lmodel_to_string weakest))
    (static_apps ())

let test_static_group_weakest () =
  let rep = St.analyze (Models.solver_handshake ~labels:Models.Hs_group ()) in
  match rep.St.lattice.Cls.weakest with
  | Cls.M_group _ -> ()
  | m ->
    Alcotest.failf "group-labelled handshake inferred %s"
      (Cls.lmodel_to_string m)

(* rebuild the model from the [level] column of the proof trace; it
   must equal the inferred weakest model (the trace is machine-checkable) *)
let rebuild_from_axioms (axioms : Cls.axiom_req list) =
  let level a =
    (List.find (fun (r : Cls.axiom_req) -> r.Cls.axiom = a) axioms).Cls.level
  in
  match level "wi" with
  | "all" -> "causal"
  | "reader" -> (
    match level "po" with "global" -> "pram" | s -> s)
  | g -> g (* "group:..." carries the group verbatim *)

let test_static_axiom_trace () =
  List.iter
    (fun (name, prog, _) ->
      let rep = St.analyze prog in
      let lat = rep.St.lattice in
      check (name ^ ": five axiom rows") true
        (List.map (fun (r : Cls.axiom_req) -> r.Cls.axiom) lat.Cls.axioms
        = [ "po"; "wi"; "sync"; "wo"; "rt" ]);
      List.iter
        (fun (r : Cls.axiom_req) ->
          if r.Cls.axiom = "wo" || r.Cls.axiom = "rt" then
            check (name ^ ": " ^ r.Cls.axiom ^ " never needed") false
              r.Cls.needed)
        lat.Cls.axioms;
      Alcotest.(check string)
        (name ^ ": trace rebuilds the model")
        (Cls.lmodel_to_string lat.Cls.weakest)
        (rebuild_from_axioms lat.Cls.axioms))
    (static_apps ())

let test_static_read_models_join () =
  (* the reported weakest model is the join of the per-read models *)
  List.iter
    (fun (name, prog, _) ->
      let rep = St.analyze prog in
      let lat = rep.St.lattice in
      let join =
        List.fold_left
          (fun acc (rm : Cls.read_model) -> Cls.model_join acc rm.Cls.rm_model)
          (Cls.M_session { ryw = false; mr = false })
          lat.Cls.read_models
      in
      Alcotest.(check string)
        (name ^ ": weakest = join of reads")
        (Cls.lmodel_to_string lat.Cls.weakest)
        (Cls.lmodel_to_string join))
    (static_apps ())

(* ------------------------------------------------------------------ *)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "lattice"
    [
      ( "algebra",
        [
          Alcotest.test_case "leq preorder" `Quick test_leq_preorder;
          Alcotest.test_case "bottom and top" `Quick test_bounds;
          Alcotest.test_case "meet and join bound" `Quick test_meet_join;
          Alcotest.test_case "special points" `Quick test_special_points;
          Alcotest.test_case "names round-trip" `Quick test_names_round_trip;
          Alcotest.test_case "ladder order" `Quick
            test_ladder_is_linear_extension;
        ] );
      ( "differential",
        [
          qt lattice_diff_random;
          qt lattice_monotone;
          qt online_uniform_diff;
          qt oracle_random;
          qt oracle_cyclic;
          qt oracle_restrictions;
          Alcotest.test_case "restriction sides" `Quick test_restriction_sides;
          Alcotest.test_case "session points on overlapping operations" `Quick
            test_session_overlapping;
        ] );
      ( "online",
        [ Alcotest.test_case "supports" `Quick test_supports ] );
      ( "apps",
        [
          Alcotest.test_case "solver barrier" `Quick test_app_solver;
          Alcotest.test_case "em field" `Quick test_app_em;
          Alcotest.test_case "cholesky locks" `Quick test_app_cholesky;
        ] );
      ( "static",
        [
          Alcotest.test_case "weakest below labels" `Quick
            test_static_weakest_below_labels;
          Alcotest.test_case "group handshake" `Quick test_static_group_weakest;
          Alcotest.test_case "axiom trace rebuilds" `Quick
            test_static_axiom_trace;
          Alcotest.test_case "weakest is join of reads" `Quick
            test_static_read_models_join;
        ] );
    ]
