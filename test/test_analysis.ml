(* Tests for the Mc_analysis subsystem:

   - the race detector is differentially tested against
     [Commute.theorem1_report] on every history in a catalog replicating
     the existing test-suite histories, on recorded histories with
     overlapping fibers, and on random histories (QCheck);
   - the happens-before chain clocks folded over [Stream] are exact
     w.r.t. the definitional causality closure of test/oracle.ml;
   - each lint rule L001-L006 fires on a minimal trigger and stays quiet
     on clean histories;
   - the label advisor recommends along the PRAM < Group < Causal
     spectrum and honours the two corollary program classes, and gives
     the same advice as the per-read closure advisor of test/oracle.ml
     on random histories and on the Section-5 apps. *)

module Op = Mc_history.Op
module History = Mc_history.History
module Dsl = Mc_history.Dsl
module Recorder = Mc_history.Recorder
module Relation = Mc_util.Relation
module Commute = Mc_consistency.Commute
module Diag = Mc_analysis.Diag
module Lockset = Mc_analysis.Lockset
module Race = Mc_analysis.Race
module Lint = Mc_analysis.Lint
module Advisor = Mc_analysis.Advisor
module Analysis = Mc_analysis.Analysis

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* History catalog: the shapes used across the existing test suite     *)
(* ------------------------------------------------------------------ *)

let lock_chain ~last_read =
  Dsl.make ~procs:3
    [
      [ Dsl.wl ~seq:0 "m"; Dsl.w "x" 1; Dsl.wu ~seq:1 "m" ];
      [ Dsl.wl ~seq:2 "m"; Dsl.w "y" 2; Dsl.wu ~seq:3 "m" ];
      [ Dsl.wl ~seq:4 "m"; last_read; Dsl.wu ~seq:5 "m" ];
    ]

let overlapping_fibers () =
  (* two in-flight operations on process 0: program order is a genuine
     partial order, so the per-process chain decomposition needs more
     chains than processes *)
  let r = Recorder.create ~procs:2 () in
  let t1 = Recorder.start r ~proc:0 in
  let t2 = Recorder.start r ~proc:0 in
  ignore (Recorder.finish r t1 (Op.Write { loc = "x"; value = 1 }));
  ignore (Recorder.finish r t2 (Op.Write { loc = "y"; value = 2 }));
  ignore
    (Recorder.record r ~proc:0 (Op.Read { loc = "x"; label = Op.Causal; value = 1 }));
  ignore
    (Recorder.record r ~proc:1 (Op.Read { loc = "y"; label = Op.PRAM; value = 0 }));
  ignore (Recorder.record r ~proc:1 (Op.Write { loc = "x"; value = 3 }));
  Recorder.history r

(* p0 holds l across two overlapping writes of x (two chains), p1
   writes x under l, p2 stays idle: three chains for three processes,
   yet the lockset screen must not run, since p0's writes are
   concurrent *)
let idle_process_fibers () =
  let r = Recorder.create ~procs:3 () in
  let lock proc kind =
    ignore (Recorder.record r ~proc ~sync_seq:(Recorder.grant_seq r "l") kind)
  in
  lock 0 (Op.Write_lock "l");
  let t1 = Recorder.start r ~proc:0 in
  let t2 = Recorder.start r ~proc:0 in
  ignore (Recorder.finish r t1 (Op.Write { loc = "x"; value = 1 }));
  ignore (Recorder.finish r t2 (Op.Write { loc = "x"; value = 2 }));
  lock 0 (Op.Write_unlock "l");
  lock 1 (Op.Write_lock "l");
  ignore (Recorder.record r ~proc:1 (Op.Write { loc = "x"; value = 3 }));
  lock 1 (Op.Write_unlock "l");
  Recorder.history r

(* reads whose writer completes after them: the initial value written
   back, and a value written twice. Reads-from joins a read with every
   writer of its value, so both writes of x precede the read *)
let written_initial_value () =
  Dsl.make ~procs:2 [ [ Dsl.rp "x" 0 ]; [ Dsl.w "x" 0 ] ]

let repeated_value () =
  Dsl.make ~procs:3 [ [ Dsl.w "x" 1 ]; [ Dsl.rp "x" 1 ]; [ Dsl.w "x" 1 ] ]

let catalog () =
  [
    ( "dekker",
      Dsl.make ~procs:2
        [ [ Dsl.w "x" 1; Dsl.rc "y" 0 ]; [ Dsl.w "y" 1; Dsl.rc "x" 0 ] ] );
    ( "message-passing",
      Dsl.make ~procs:2
        [ [ Dsl.w "x" 42; Dsl.w "f" 1 ]; [ Dsl.rc "f" 1; Dsl.rc "x" 42 ] ] );
    ( "pram-not-causal",
      Dsl.make ~procs:3
        [
          [ Dsl.w "x" 1 ];
          [ Dsl.rp "x" 1; Dsl.w "y" 2 ];
          [ Dsl.rp "y" 2; Dsl.rp "x" 0 ];
        ] );
    ( "fifo-violation",
      Dsl.make ~procs:2
        [ [ Dsl.w "x" 1; Dsl.w "x" 2 ]; [ Dsl.rp "x" 2; Dsl.rp "x" 1 ] ] );
    ( "write-order-disagreement",
      Dsl.make ~procs:4
        [
          [ Dsl.w "x" 1 ];
          [ Dsl.w "x" 2 ];
          [ Dsl.rc "x" 1; Dsl.rc "x" 2 ];
          [ Dsl.rc "x" 2; Dsl.rc "x" 1 ];
        ] );
    ( "await-fresh",
      Dsl.make ~procs:2
        [ [ Dsl.w "y" 5; Dsl.w "x" 1 ]; [ Dsl.await "x" 1; Dsl.rp "y" 5 ] ] );
    ( "await-stale",
      Dsl.make ~procs:2
        [ [ Dsl.w "y" 5; Dsl.w "x" 1 ]; [ Dsl.await "x" 1; Dsl.rp "y" 0 ] ] );
    ("lock-chain-stale-x", lock_chain ~last_read:(Dsl.rp "x" 0));
    ("lock-chain-fresh-y", lock_chain ~last_read:(Dsl.rp "y" 2));
    ( "entry-consistent",
      Dsl.make ~procs:2
        [
          [ Dsl.wl ~seq:0 "m"; Dsl.w "x" 1; Dsl.wu ~seq:1 "m" ];
          [ Dsl.rl ~seq:2 "m"; Dsl.rc "x" 1; Dsl.ru ~seq:3 "m" ];
        ] );
    ( "read-lock-write",
      Dsl.make ~procs:2
        [
          [ Dsl.rl ~seq:0 "m"; Dsl.w "x" 1; Dsl.ru ~seq:1 "m" ];
          [ Dsl.rl ~seq:2 "m"; Dsl.rc "x" 1; Dsl.ru ~seq:3 "m" ];
        ] );
    ( "unlocked-write",
      Dsl.make ~procs:2
        [ [ Dsl.w "x" 1 ]; [ Dsl.rl ~seq:0 "m"; Dsl.rc "x" 1; Dsl.ru ~seq:1 "m" ] ] );
    ( "pram-phases",
      Dsl.make ~procs:2
        [
          [ Dsl.rp "x" 0; Dsl.bar 0; Dsl.w "x" 1; Dsl.bar 1 ];
          [ Dsl.rp "x" 0; Dsl.bar 0; Dsl.bar 1; Dsl.rp "x" 1 ];
        ] );
    ( "group-barrier",
      Dsl.make ~procs:3
        [
          [ Dsl.w "x" 1; Dsl.barg 0 [ 0; 1 ]; Dsl.rp "y" 2 ];
          [ Dsl.barg 0 [ 0; 1 ]; Dsl.w "y" 2; Dsl.barg 1 [ 1; 2 ] ];
          [ Dsl.barg 1 [ 1; 2 ]; Dsl.rp "y" 2; Dsl.rp "x" 0 ];
        ] );
    ( "decrements",
      Dsl.make ~procs:2
        [
          [ Dsl.w "c" 5; Dsl.dec "c" ~amount:2 ~observed:5 ];
          [ Dsl.dec "c" ~amount:1 ~observed:3; Dsl.rc "c" 2 ];
        ] );
    ( "group-labels",
      Dsl.make ~procs:3
        [
          [ Dsl.w "x" 1 ];
          [ Dsl.rp "x" 1; Dsl.w "y" 2 ];
          [ Dsl.rg [ 2 ] "y" 2; Dsl.rg [ 0; 1; 2 ] "x" 1 ];
        ] );
    ( "handshake",
      Dsl.make ~procs:2
        [
          [ Dsl.await "computed" 1; Dsl.rc "x" 10; Dsl.w "ack" 1 ];
          [ Dsl.w "x" 10; Dsl.w "computed" 1; Dsl.await "ack" 1 ];
        ] );
    ( "racy-writes",
      Dsl.make ~procs:2
        [ [ Dsl.w "x" 1; Dsl.rp "y" 0 ]; [ Dsl.w "x" 2; Dsl.w "y" 1 ] ] );
    ( "bad-lock-discipline",
      Dsl.make ~procs:2
        [
          [ Dsl.wl ~seq:0 "l"; Dsl.w "x" 1 ];
          [ Dsl.rl ~seq:1 "l"; Dsl.w "x" 2; Dsl.ru ~seq:2 "l" ];
        ] );
    ( "await-never-fires",
      Dsl.make ~procs:2 [ [ Dsl.await "f" 5 ]; [ Dsl.w "f" 1 ] ] );
    ( "theorem1-positive",
      Dsl.make ~procs:2
        [ [ Dsl.w "x" 1; Dsl.rc "x" 1 ]; [ Dsl.w "y" 2; Dsl.rc "y" 2 ] ] );
    ("overlapping-fibers", overlapping_fibers ());
    ("idle-process-fibers", idle_process_fibers ());
    ("written-initial-value", written_initial_value ());
    ("repeated-value", repeated_value ());
  ]

(* ------------------------------------------------------------------ *)
(* Differential: detector == Theorem 1 premise 1                       *)
(* ------------------------------------------------------------------ *)

let pp_pairs ps =
  String.concat ","
    (List.map (fun (i, j) -> Printf.sprintf "(%d,%d)" i j) ps)

let assert_differential name h =
  let expected = (Commute.theorem1_report h).Commute.non_commuting_pairs in
  let got = Race.race_pairs (Race.detect h) in
  if got <> expected then
    Alcotest.failf "%s: detector found [%s], theorem1_report found [%s]" name
      (pp_pairs got) (pp_pairs expected)

let test_differential_catalog () =
  List.iter (fun (name, h) -> assert_differential name h) (catalog ())

let test_hb_exact () =
  List.iter
    (fun (name, h) ->
      let hb = Race.happens_before h in
      let causality = Oracle.causality h in
      let n = History.length h in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if i <> j && hb i j <> Relation.mem causality i j then
            Alcotest.failf "%s: hb(%d,%d)=%b but causality says %b" name i j
              (hb i j)
              (Relation.mem causality i j)
        done
      done)
    (catalog ())

let test_late_writers () =
  let h = written_initial_value () in
  check "w(x)0 before the earlier r(x)0" true (Race.happens_before h 1 0);
  Alcotest.(check (list (pair int int)))
    "written-initial-value pairs" [] (Race.race_pairs (Race.detect h));
  let h = repeated_value () in
  let hb = Race.happens_before h in
  check "first w(x)1 before r(x)1" true (hb 0 1);
  check "second w(x)1 before the earlier r(x)1" true (hb 2 1);
  Alcotest.(check (list (pair int int)))
    "repeated-value pairs" [ (0, 2) ] (Race.race_pairs (Race.detect h))

let test_overlapping_fibers_need_extra_chains () =
  let h = overlapping_fibers () in
  check "more chains than processes" true
    ((Race.detect h).Race.hb_chains > History.procs h)

(* random histories: reads/writes plus locked writes and barriers, so the
   differential also exercises the lock-epoch and barrier-episode paths *)
type op_choice = { shape : int; loc : int; guess : int; label : int }

(* [~repeat:true] draws written values from {0, 1, 2}, so values repeat
   and the initial value is written back. Labels are PRAM or Causal;
   [~groups:true] adds group labels: a pair holding the reader, a pair
   without it (for three or more processes), the reader alone, and a
   pair with a member out of range. *)
let history_of_choices ?(repeat = false) ?(groups = false) ~procs
    (choices : op_choice list list) =
  let label_of proc l =
    if not groups then if l land 1 = 1 then Op.Causal else Op.PRAM
    else
      match l with
      | 0 -> Op.PRAM
      | 1 -> Op.Causal
      | 2 -> Op.Group [ proc; (proc + 1) mod procs ]
      | 3 -> Op.Group [ (proc + 1) mod procs; (proc + 2) mod procs ]
      | 4 -> Op.Group [ proc ]
      | _ -> Op.Group [ proc; procs ]
  in
  let r = Recorder.create ~procs () in
  let next_value = ref 0 in
  let all_values = ref [ 0 ] in
  let written c =
    if repeat then c.guess mod 3
    else begin
      incr next_value;
      all_values := !next_value :: !all_values;
      !next_value
    end
  in
  let programs =
    List.map
      (List.map (fun c ->
           let loc = "v" ^ string_of_int c.loc in
           match c.shape with
           | 0 | 1 -> `Write (loc, written c)
           | 2 | 3 -> `Read (loc, c.guess, c.label)
           | 4 -> `Locked_write (loc, written c)
           | _ -> `Barrier))
      choices
  in
  let values =
    if repeat then [| 0; 1; 2 |] else Array.of_list (List.rev !all_values)
  in
  List.iteri
    (fun proc prog ->
      let bars = ref 0 in
      List.iter
        (fun op ->
          match op with
          | `Write (loc, v) ->
            ignore (Recorder.record r ~proc (Op.Write { loc; value = v }))
          | `Read (loc, guess, l) ->
            let value = values.(guess mod Array.length values) in
            ignore (Recorder.record r ~proc (Op.Read { loc; label = label_of proc l; value }))
          | `Locked_write (loc, v) ->
            ignore
              (Recorder.record r ~proc
                 ~sync_seq:(Recorder.grant_seq r "m")
                 (Op.Write_lock "m"));
            ignore (Recorder.record r ~proc (Op.Write { loc; value = v }));
            ignore
              (Recorder.record r ~proc
                 ~sync_seq:(Recorder.grant_seq r "m")
                 (Op.Write_unlock "m"))
          | `Barrier ->
            let k = !bars in
            incr bars;
            ignore (Recorder.record r ~proc (Op.Barrier k)))
        prog)
    programs;
  Recorder.history r

let op_choice_gen =
  QCheck.Gen.(
    map4
      (fun shape loc guess label -> { shape; loc; guess; label })
      (int_bound 5) (int_bound 2) (int_bound 11) (int_bound 5))

let history_arb ~procs ~max_ops =
  QCheck.make
    ~print:(fun choices ->
      Format.asprintf "%a" History.pp (history_of_choices ~procs choices))
    QCheck.Gen.(
      list_size (return procs) (list_size (int_bound max_ops) op_choice_gen))

let random_differential =
  QCheck.Test.make ~name:"detector matches theorem1_report on random histories"
    ~count:400
    (history_arb ~procs:3 ~max_ops:5)
    (fun choices ->
      let h = history_of_choices ~procs:3 choices in
      QCheck.assume (History.causality_is_acyclic h);
      Race.race_pairs (Race.detect h)
      = (Commute.theorem1_report h).Commute.non_commuting_pairs)

let random_hb_exact =
  QCheck.Test.make ~name:"hb clocks match History.causality on random histories"
    ~count:400
    (history_arb ~procs:3 ~max_ops:5)
    (fun choices ->
      let h = history_of_choices ~procs:3 choices in
      QCheck.assume (History.causality_is_acyclic h);
      let hb = Race.happens_before h in
      let causality = Oracle.causality h in
      let n = History.length h in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if i <> j && hb i j <> Relation.mem causality i j then ok := false
        done
      done;
      !ok)

let repeated_values_exact =
  QCheck.Test.make
    ~name:"detector and hb clocks exact with repeated written values"
    ~count:400
    (history_arb ~procs:3 ~max_ops:5)
    (fun choices ->
      let h = history_of_choices ~repeat:true ~procs:3 choices in
      QCheck.assume (History.causality_is_acyclic h);
      let hb = Race.happens_before h in
      let causality = Oracle.causality h in
      let n = History.length h in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if i <> j && hb i j <> Relation.mem causality i j then ok := false
        done
      done;
      !ok
      && Race.race_pairs (Race.detect h)
         = (Commute.theorem1_report h).Commute.non_commuting_pairs)

(* ------------------------------------------------------------------ *)
(* Lockset                                                             *)
(* ------------------------------------------------------------------ *)

let test_lockset_protected () =
  let h =
    Dsl.make ~procs:2
      [
        [ Dsl.wl ~seq:0 "m"; Dsl.w "x" 1; Dsl.wu ~seq:1 "m" ];
        [ Dsl.wl ~seq:2 "m"; Dsl.w "x" 2; Dsl.wu ~seq:3 "m" ];
      ]
  in
  match Lockset.analyze h with
  | [ info ] ->
    check "x protected by m" true (Lockset.is_protected info);
    check "candidates" true (info.Lockset.candidates = [ "m" ])
  | infos -> Alcotest.failf "expected one shared location, got %d" (List.length infos)

let test_lockset_unprotected () =
  let h =
    Dsl.make ~procs:2
      [
        [ Dsl.wl ~seq:0 "m"; Dsl.w "x" 1; Dsl.wu ~seq:1 "m" ];
        [ Dsl.w "x" 2 ];
      ]
  in
  match Lockset.analyze h with
  | [ info ] ->
    check "candidate set emptied" false (Lockset.is_protected info);
    check "R002 reported" true
      (List.exists
         (fun d -> d.Diag.rule = "R002")
         (Lockset.diagnostics [ info ]))
  | _ -> Alcotest.fail "expected one shared location"

(* ------------------------------------------------------------------ *)
(* Lint rules                                                          *)
(* ------------------------------------------------------------------ *)

let rules ds = List.map (fun d -> d.Diag.rule) ds

let test_lint_l001_unlock_without_lock () =
  let h = Dsl.make ~procs:1 [ [ Dsl.wu ~seq:0 "m" ] ] in
  check "L001" true (List.mem "L001" (rules (Lint.lint h)))

let test_lint_l001_wrong_mode () =
  let h = Dsl.make ~procs:1 [ [ Dsl.wl ~seq:0 "m"; Dsl.ru ~seq:1 "m" ] ] in
  check "L001 wrong mode" true (List.mem "L001" (rules (Lint.lint h)))

let test_lint_l002_double_acquire () =
  let h =
    Dsl.make ~procs:1
      [ [ Dsl.wl ~seq:0 "m"; Dsl.wl ~seq:1 "m"; Dsl.wu ~seq:2 "m"; Dsl.wu ~seq:3 "m" ] ]
  in
  check "L002" true (List.mem "L002" (rules (Lint.lint h)))

let test_lint_l003_held_at_exit () =
  let h = Dsl.make ~procs:1 [ [ Dsl.wl ~seq:0 "m"; Dsl.w "x" 1 ] ] in
  check "L003" true (List.mem "L003" (rules (Lint.lint h)))

let test_lint_l004_barrier_mismatch () =
  (* p1 never reaches episode 1 *)
  let h =
    Dsl.make ~procs:2 [ [ Dsl.bar 0; Dsl.bar 1 ]; [ Dsl.bar 0 ] ]
  in
  check "L004 missing process" true (List.mem "L004" (rules (Lint.lint h)));
  (* a non-member participates in a group barrier *)
  let h =
    Dsl.make ~procs:2 [ [ Dsl.barg 0 [ 0 ] ]; [ Dsl.barg 0 [ 0 ] ] ]
  in
  check "L004 non-member" true (List.mem "L004" (rules (Lint.lint h)))

let test_lint_l005_await_never_fires () =
  let h = Dsl.make ~procs:2 [ [ Dsl.await "f" 5 ]; [ Dsl.w "f" 1 ] ] in
  check "L005" true (List.mem "L005" (rules (Lint.lint h)));
  (* awaiting the initial value or a written value is fine *)
  let ok =
    Dsl.make ~procs:2 [ [ Dsl.await "f" 0; Dsl.await "g" 1 ]; [ Dsl.w "g" 1 ] ]
  in
  check "no L005" false (List.mem "L005" (rules (Lint.lint ok)))

let test_lint_l006_write_under_read_lock () =
  let h = Dsl.make ~procs:1 [ [ Dsl.rl ~seq:0 "m"; Dsl.w "x" 1; Dsl.ru ~seq:1 "m" ] ] in
  check "L006" true (List.mem "L006" (rules (Lint.lint h)))

let test_lint_clean_history () =
  let h =
    Dsl.make ~procs:2
      [
        [ Dsl.wl ~seq:0 "m"; Dsl.w "x" 1; Dsl.wu ~seq:1 "m"; Dsl.bar 0 ];
        [ Dsl.rl ~seq:2 "m"; Dsl.rc "x" 0; Dsl.ru ~seq:3 "m"; Dsl.bar 0 ];
      ]
  in
  check_int "no diagnostics" 0 (List.length (Lint.lint h))

(* ------------------------------------------------------------------ *)
(* Label advisor                                                       *)
(* ------------------------------------------------------------------ *)

let advice_rules h = rules (Advisor.diagnostics h (Advisor.advise h))

let test_advisor_over_labelled () =
  let h = Dsl.make ~procs:2 [ [ Dsl.w "x" 1 ]; [ Dsl.rc "x" 1 ] ] in
  check "A001" true (List.mem "A001" (advice_rules h))

let test_advisor_under_labelled () =
  (* the transitivity chain: the stale read of x is PRAM-valid but not
     causal-valid, so declaring it Causal under-delivers *)
  let h =
    Dsl.make ~procs:3
      [
        [ Dsl.w "x" 1 ];
        [ Dsl.rp "x" 1; Dsl.w "y" 2 ];
        [ Dsl.rp "y" 2; Dsl.rc "x" 0 ];
      ]
  in
  let advices = Advisor.advise h in
  let bad = List.find (fun a -> a.Advisor.read_id = 4) advices in
  check "declared label invalid" false bad.Advisor.declared_valid;
  check "PRAM recommended" true (bad.Advisor.recommended = Some Op.PRAM);
  check "A002" true (List.mem "A002" (advice_rules h))

let test_advisor_no_label_validates () =
  let h = Dsl.make ~procs:2 [ [ Dsl.w "x" 1 ]; [ Dsl.rc "x" 9 ] ] in
  check "A003" true (List.mem "A003" (advice_rules h))

let test_advisor_corollary1_strengthens () =
  (* entry-consistent program whose PRAM-labelled read happens to validate
     in this schedule: Corollary 1 still wants Causal *)
  let h =
    Dsl.make ~procs:2
      [
        [ Dsl.wl ~seq:0 "m"; Dsl.w "x" 1; Dsl.wu ~seq:1 "m" ];
        [ Dsl.rl ~seq:2 "m"; Dsl.rp "x" 1; Dsl.ru ~seq:3 "m" ];
      ]
  in
  let advices = Advisor.advise h in
  let a = List.find (fun a -> a.Advisor.read_id = 4) advices in
  check "declared PRAM validates" true a.Advisor.declared_valid;
  check "Causal recommended" true (a.Advisor.recommended = Some Op.Causal);
  check "A002 warning" true (List.mem "A002" (advice_rules h))

let test_advisor_corollary2_keeps_pram () =
  (* PRAM-consistent phase program: PRAM reads already give SC, so the
     causal read is flagged as over-labelled and the PRAM reads pass *)
  let h =
    Dsl.make ~procs:2
      [
        [ Dsl.rp "x" 0; Dsl.bar 0; Dsl.w "x" 1; Dsl.bar 1 ];
        [ Dsl.rp "x" 0; Dsl.bar 0; Dsl.bar 1; Dsl.rc "x" 1 ];
      ]
  in
  let advices = Advisor.advise h in
  let causal_read = List.find (fun a -> a.Advisor.read_id = 7) advices in
  check "PRAM recommended for the causal read" true
    (causal_read.Advisor.recommended = Some Op.PRAM);
  let pram_reads = List.filter (fun a -> a.Advisor.declared = Op.PRAM) advices in
  check "PRAM reads keep PRAM" true
    (List.for_all (fun a -> a.Advisor.recommended = Some Op.PRAM) pram_reads)

let test_advisor_group_spectrum () =
  (* a group read whose group is just the reader behaves as PRAM; the full
     group behaves as Causal (Section 3.2 end points) *)
  let h =
    Dsl.make ~procs:3
      [
        [ Dsl.w "x" 1 ];
        [ Dsl.rp "x" 1; Dsl.w "y" 2 ];
        [ Dsl.rg [ 2 ] "y" 2; Dsl.rg [ 0; 1; 2 ] "x" 0 ];
      ]
  in
  let advices = Advisor.advise h in
  let singleton = List.find (fun a -> a.Advisor.read_id = 3) advices in
  check "singleton group validates" true singleton.Advisor.declared_valid;
  let full = List.find (fun a -> a.Advisor.read_id = 4) advices in
  check "full group behaves as causal: invalid" false full.Advisor.declared_valid;
  check "PRAM would do" true (full.Advisor.recommended = Some Op.PRAM)

(* [Advisor.advise] reads each lattice point's failure set once per
   history; [Oracle.advise] decides every read on its own closures. All
   five fields must agree, on random histories with member, non-member,
   singleton and out-of-range group labels, with and without repeated
   values (which take the closure engine), and on the Section-5 apps. *)
let advice_matches name h =
  let got = Advisor.advise h and want = Oracle.advise h in
  got = want
  || begin
       Format.eprintf "%s: advice differs from the per-read oracle:@.%a@." name History.pp h;
       false
     end

let advisor_differential =
  QCheck.Test.make ~name:"advise = per-read oracle on random histories" ~count:300
    (QCheck.pair QCheck.bool (history_arb ~procs:3 ~max_ops:5))
    (fun (repeat, choices) ->
      advice_matches "random" (history_of_choices ~repeat ~groups:true ~procs:3 choices))

module Engine = Mc_sim.Engine
module Runtime = Mc_dsm.Runtime
module Config = Mc_dsm.Config
module Api = Mc_dsm.Api
module Solver = Mc_apps.Linear_solver
module Sparse = Mc_apps.Sparse_spd
module Cholesky = Mc_apps.Cholesky

let record_app ?(groups = []) ~procs launch =
  let rt =
    Runtime.create (Engine.create ()) { (Config.default ~procs) with record = true; groups }
  in
  ignore (launch (Api.spawn rt));
  ignore (Runtime.run rt);
  Runtime.history rt

let test_advisor_apps () =
  let problem = Solver.Problem.generate ~seed:42 ~n:8 in
  let m = Sparse.generate ~seed:11 ~n:10 ~density:0.3 in
  let solver variant ?groups procs =
    record_app ?groups ~procs (fun spawn -> Solver.launch ~spawn ~procs ~variant problem)
  in
  let cholesky variant =
    record_app ~procs:3 (fun spawn -> Cholesky.launch ~spawn ~procs:3 ~variant m)
  in
  List.iter
    (fun (name, h) -> check (name ^ ": advise = per-read oracle") true (advice_matches name h))
    [
      ("solver barrier", solver Solver.Barrier_pram 4);
      ("solver handshake", solver Solver.Handshake_causal 3);
      ( "solver group",
        solver Solver.Handshake_group ~groups:(Solver.solver_groups ~procs:3) 3 );
      ( "em field",
        record_app ~procs:3 (fun spawn ->
            Mc_apps.Em_field.launch ~spawn ~procs:3
              { Mc_apps.Em_field.rows = 9; cols = 5; steps = 3; seed = 5 }) );
      ("cholesky locks", cholesky Cholesky.Lock_based);
      ("cholesky counters", cholesky Cholesky.Counter_based);
      ( "pipeline awaits",
        record_app ~procs:3 (fun spawn ->
            Mc_apps.Pipeline.launch ~spawn ~procs:3 ~impl:Mc_apps.Pipeline.Await_based
              { Mc_apps.Pipeline.items = 15; slots = 3; work = 2.0 }) );
    ]

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let test_driver_counts_and_json () =
  let h =
    Dsl.make ~procs:2
      [ [ Dsl.w "x" 1; Dsl.rp "y" 0 ]; [ Dsl.w "x" 2; Dsl.w "y" 1 ] ]
  in
  let r = Analysis.analyze h in
  check "has errors" true (Analysis.has_errors r);
  check_int "severities partition the diagnostics"
    (List.length r.Analysis.diags)
    (r.Analysis.errors + r.Analysis.warnings + r.Analysis.infos);
  let json = Analysis.to_json r in
  let contains needle =
    let nl = String.length needle and jl = String.length json in
    let rec at i = i + nl <= jl && (String.sub json i nl = needle || at (i + 1)) in
    at 0
  in
  List.iter
    (fun needle ->
      check (Printf.sprintf "json contains %s" needle) true (contains needle))
    [ "\"rule\":\"R001\""; "\"summary\""; "\"errors\"" ]

let test_driver_clean_report () =
  let h =
    Dsl.make ~procs:2
      [ [ Dsl.w "x" 1; Dsl.w "f" 1 ]; [ Dsl.rp "f" 1; Dsl.rp "x" 1 ] ]
  in
  let r = Analysis.analyze h in
  check "no errors" false (Analysis.has_errors r)

let () =
  Alcotest.run "mc_analysis"
    [
      ( "differential",
        [
          Alcotest.test_case "catalog matches theorem1_report" `Quick
            test_differential_catalog;
          Alcotest.test_case "hb clocks exact on catalog" `Quick test_hb_exact;
          Alcotest.test_case "late writers order the read" `Quick
            test_late_writers;
          Alcotest.test_case "overlapping fibers use extra chains" `Quick
            test_overlapping_fibers_need_extra_chains;
          QCheck_alcotest.to_alcotest random_differential;
          QCheck_alcotest.to_alcotest random_hb_exact;
          QCheck_alcotest.to_alcotest repeated_values_exact;
        ] );
      ( "lockset",
        [
          Alcotest.test_case "protected location" `Quick test_lockset_protected;
          Alcotest.test_case "unprotected location" `Quick test_lockset_unprotected;
        ] );
      ( "lint",
        [
          Alcotest.test_case "L001 unlock without lock" `Quick
            test_lint_l001_unlock_without_lock;
          Alcotest.test_case "L001 wrong mode" `Quick test_lint_l001_wrong_mode;
          Alcotest.test_case "L002 double acquire" `Quick test_lint_l002_double_acquire;
          Alcotest.test_case "L003 held at exit" `Quick test_lint_l003_held_at_exit;
          Alcotest.test_case "L004 barrier mismatch" `Quick
            test_lint_l004_barrier_mismatch;
          Alcotest.test_case "L005 await never fires" `Quick
            test_lint_l005_await_never_fires;
          Alcotest.test_case "L006 write under read lock" `Quick
            test_lint_l006_write_under_read_lock;
          Alcotest.test_case "clean history" `Quick test_lint_clean_history;
        ] );
      ( "advisor",
        [
          Alcotest.test_case "over-labelled" `Quick test_advisor_over_labelled;
          Alcotest.test_case "under-labelled" `Quick test_advisor_under_labelled;
          Alcotest.test_case "no label validates" `Quick
            test_advisor_no_label_validates;
          Alcotest.test_case "corollary 1 strengthens" `Quick
            test_advisor_corollary1_strengthens;
          Alcotest.test_case "corollary 2 keeps PRAM" `Quick
            test_advisor_corollary2_keeps_pram;
          Alcotest.test_case "group spectrum end points" `Quick
            test_advisor_group_spectrum;
          QCheck_alcotest.to_alcotest advisor_differential;
          Alcotest.test_case "Section-5 apps match the per-read oracle" `Quick
            test_advisor_apps;
        ] );
      ( "driver",
        [
          Alcotest.test_case "counts and json" `Quick test_driver_counts_and_json;
          Alcotest.test_case "clean report" `Quick test_driver_clean_report;
        ] );
    ]
