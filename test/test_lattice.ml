(* Tests of the axiom-parameterized consistency lattice (ISSUE 7):

   - algebra: [leq] is a preorder on the model pool with [Session []]
     at the bottom and [Linearizable] at the top; [meet]/[join] bound
     their arguments; [Group []] collapses to [PRAM]; [Mixed] is the
     interval [PRAM, Causal]; names round-trip through
     [of_string]/[to_string]; the documentation [ladder] never lists a
     strictly stronger model before a weaker one;
   - differential: on random histories with locks, barriers and all
     three read labels, [Lattice.verdict_at] equals [Read_rule.check]
     over the seed [History] relations for every memory read, and
     [Lattice.failures] at the [Mixed] point is exactly the reads those
     relations reject at their own labels, labels included;
   - oracle: at every pool point [Lattice.failures] equals the
     independent path of test/oracle.ml (Warshall, a restricted copy
     per reader, the read rule scanning every operation), read ids and
     verdicts alike, on random histories, on histories whose SC, cache
     and processor relations are cyclic, and on the Section-5 apps;
   - QCheck monotonicity: [leq m1 m2] implies the failing read-id set
     of [m1] is contained in that of [m2], across the whole pool
     including the witness-based SC/linearizable points;
   - online: for every streamable point the uniform online checker
     reproduces [Lattice.failures] verdict-for-verdict;
   - Section-5 apps: the same differential + monotonicity sweep on
     recorded solver/EM/Cholesky executions;
   - static: [Static.analyze] infers weakest models at or below the
     paper's label assignment for every [Static_models] app, and the
     per-axiom proof trace reconstructs the inferred model. *)

module Op = Mc_history.Op
module History = Mc_history.History
module Dsl = Mc_history.Dsl
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

let history_of_programs ?(prefix = fun _ -> []) ~procs (progs : program list) =
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
  let spec_of_simple proc s =
    if s.s_is_write then begin
      incr next_value;
      Dsl.w ("v" ^ string_of_int s.s_loc) !next_value
    end
    else
      let v = values.(s.s_guess mod Array.length values) in
      match label_of proc s.s_label with
      | Op.PRAM -> Dsl.rp ("v" ^ string_of_int s.s_loc) v
      | Op.Causal -> Dsl.rc ("v" ^ string_of_int s.s_loc) v
      | Op.Group g -> Dsl.rg g ("v" ^ string_of_int s.s_loc) v
  in
  let segments = List.length (List.hd progs) in
  let out = Array.make_matrix procs segments [] in
  for seg = 0 to segments - 1 do
    List.iteri
      (fun proc prog ->
        let choices = List.nth prog seg in
        let specs =
          List.concat_map
            (function
              | Simple s -> [ spec_of_simple proc s ]
              | Section (w, lock, body) ->
                let l = "m" ^ string_of_int lock in
                let s0 = lock_seq.(lock) in
                lock_seq.(lock) <- s0 + 2;
                let body = List.map (spec_of_simple proc) body in
                if w then (Dsl.wl ~seq:s0 l :: body) @ [ Dsl.wu ~seq:(s0 + 1) l ]
                else (Dsl.rl ~seq:s0 l :: body) @ [ Dsl.ru ~seq:(s0 + 1) l ])
            choices
        in
        out.(proc).(seg) <- specs)
      progs
  done;
  let per_proc =
    List.init procs (fun proc ->
        prefix proc
        @ List.concat
            (List.init segments (fun seg ->
                 out.(proc).(seg)
                 @ if seg < segments - 1 then [ Dsl.bar seg ] else [])))
  in
  Dsl.make ~procs per_proc

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
    | Op.PRAM -> History.pram_relation h o.Op.proc
    | Op.Causal -> History.causal_relation h o.Op.proc
    | Op.Group g -> History.group_relation h ~reader:o.Op.proc ~group:g
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
(* Online uniform mode                                                 *)
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

let online_uniform_ok h =
  let groups = Online.groups_of_history h in
  List.for_all
    (fun m ->
      Online.failures (Online.check ~groups ~model:m h) = Lattice.failures h m
      || begin
           Format.eprintf "online disagrees under %a:@.%a@." Lattice.pp m
             History.pp h;
           false
         end)
    streamable_pool

let online_uniform_diff =
  QCheck.Test.make ~name:"uniform online = Lattice.failures" ~count:200
    (sync_history_arb ~procs:3 ~segments:2 ~max_ops:4)
    (fun progs ->
      let h = history_of_programs ~procs:3 progs in
      acyclic h;
      online_uniform_ok h)

(* ------------------------------------------------------------------ *)
(* Oracle: Warshall, a restricted copy per reader, a full read scan    *)
(* ------------------------------------------------------------------ *)

let failure_pairs h m =
  List.map (fun (f : Lattice.failure) -> (f.Lattice.read_id, f.Lattice.verdict))
    (Lattice.failures h m)

let pp_pairs fmt l =
  List.iter
    (fun (id, v) -> Format.fprintf fmt "read %d: %a@ " id Read_rule.pp_verdict v)
    l

(* identical failures (read ids and verdicts, [Overwritten] ids included)
   at every pool point, and [Lattice.relation] equal to the oracle's
   restricted relation for every reader *)
let oracle_ok h =
  let oracle = Oracle.Lattice.create h in
  List.for_all
    (fun m ->
      let got = failure_pairs h m and want = Oracle.Lattice.failures oracle m in
      got = want
      || begin
           Format.eprintf "@[<v>%a disagrees with the oracle:@ got  %a@ want %a@ %a@]@."
             Lattice.pp m pp_pairs got pp_pairs want History.pp h;
           false
         end)
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
   reads p1's write of g, which is recorded after all of p0's operations,
   then writes g itself; that write has the lower id, so the global and
   the per-location write chains both lead from it back to p1's write *)
let cycle_prefix = function
  | 0 -> [ Dsl.rc "g" 1_000_001; Dsl.w "g" 1_000_002 ]
  | 1 -> [ Dsl.w "g" 1_000_001 ]
  | _ -> []

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
