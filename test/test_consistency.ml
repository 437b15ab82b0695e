(* Tests for the consistency checkers: Definitions 1-5, Theorem 1, and
   the corollary program classes. Several cases are the classic
   separating examples between the consistency levels. *)

module Op = Mc_history.Op
module History = Mc_history.History
module Dsl = Mc_history.Dsl
module Read_rule = Mc_consistency.Read_rule
module Lattice = Mc_consistency.Lattice
module Sequential = Mc_consistency.Sequential
module Commute = Mc_consistency.Commute
module Program_class = Mc_consistency.Program_class

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Read rule                                                           *)
(* ------------------------------------------------------------------ *)

let test_read_rule_verdicts () =
  (* p1 reads a value nobody wrote *)
  let h = Dsl.make ~procs:2 [ [ Dsl.w "x" 1 ]; [ Dsl.rc "x" 9 ] ] in
  check "no matching write" true
    (Lattice.verdict_at h Op.Causal ~read_id:1 = Read_rule.No_matching_write);
  (* p0 writes twice; its own read of the first value is overwritten *)
  let h = Dsl.make ~procs:1 [ [ Dsl.w "x" 1; Dsl.w "x" 2; Dsl.rc "x" 1 ] ] in
  (match Lattice.verdict_at h Op.Causal ~read_id:2 with
  | Read_rule.Overwritten 1 -> ()
  | v -> Alcotest.failf "expected Overwritten 1, got %a" Read_rule.pp_verdict v);
  (* reading the initial value before any visible write is fine *)
  let h = Dsl.make ~procs:2 [ [ Dsl.w "x" 1 ]; [ Dsl.rc "x" 0 ] ] in
  check "initial read valid when write is concurrent" true
    (Lattice.verdict_at h Op.Causal ~read_id:1 = Read_rule.Valid)

let test_own_write_visible () =
  let h = Dsl.make ~procs:1 [ [ Dsl.w "x" 7; Dsl.rc "x" 7; Dsl.rp "x" 7 ] ] in
  check "causal read of own write" true
    (Lattice.verdict_at h Op.Causal ~read_id:1 = Read_rule.Valid);
  check "pram read of own write" true
    (Lattice.verdict_at h Op.PRAM ~read_id:2 = Read_rule.Valid);
  let stale = Dsl.make ~procs:1 [ [ Dsl.w "x" 7; Dsl.rc "x" 0 ] ] in
  check "own write cannot be unseen" false
    (Lattice.verdict_at stale Op.Causal ~read_id:1 = Read_rule.Valid)

(* ------------------------------------------------------------------ *)
(* Separating examples                                                 *)
(* ------------------------------------------------------------------ *)

(* Dekker-style: causal (and PRAM) but not sequentially consistent *)
let dekker =
  Dsl.make ~procs:2
    [ [ Dsl.w "x" 1; Dsl.rc "y" 0 ]; [ Dsl.w "y" 1; Dsl.rc "x" 0 ] ]

let test_dekker_causal_not_sc () =
  check "causal" true (Lattice.is_consistent dekker Lattice.Causal);
  check "pram" true (Lattice.is_consistent dekker Lattice.PRAM);
  check "not sequentially consistent" true
    (Sequential.is_sequentially_consistent dekker = Sequential.Inconsistent)

(* Transitivity chain: PRAM but not causal *)
let pram_not_causal =
  Dsl.make ~procs:3
    [
      [ Dsl.w "x" 1 ];
      [ Dsl.rp "x" 1; Dsl.w "y" 2 ];
      [ Dsl.rp "y" 2; Dsl.rp "x" 0 ];
    ]

let test_pram_not_causal () =
  check "pram holds" true (Lattice.is_consistent pram_not_causal Lattice.PRAM);
  check "causal fails" false (Lattice.is_consistent pram_not_causal Lattice.Causal);
  (* the failing read is p2's stale read of x *)
  match Lattice.failures pram_not_causal Lattice.Causal with
  | [ { read_id = 4; label = Op.PRAM; verdict = Read_rule.Overwritten 0 } ] -> ()
  | fs ->
    Alcotest.failf "unexpected failures: %s"
      (String.concat "; " (List.map (Format.asprintf "%a" Lattice.pp_failure) fs))

let test_mixed_labels () =
  (* same execution, labels chosen per Definition 4 *)
  let consistent =
    Dsl.make ~procs:3
      [
        [ Dsl.w "x" 1 ];
        [ Dsl.rp "x" 1; Dsl.w "y" 2 ];
        [ Dsl.rc "y" 2; Dsl.rp "x" 0 ];
      ]
  in
  check "mixed consistent with PRAM label on the stale read" true
    (Lattice.is_consistent consistent Lattice.Mixed);
  let violating =
    Dsl.make ~procs:3
      [
        [ Dsl.w "x" 1 ];
        [ Dsl.rp "x" 1; Dsl.w "y" 2 ];
        [ Dsl.rp "y" 2; Dsl.rc "x" 0 ];
      ]
  in
  check "causal label on the stale read fails" false
    (Lattice.is_consistent violating Lattice.Mixed);
  match Lattice.failures violating Lattice.Mixed with
  | [ { read_id = 4; label = Op.Causal; _ } ] -> ()
  | _ -> Alcotest.fail "expected exactly the causal read to fail"

(* Group labels in Definition 4's per-label dispatch: a singleton group
   is a PRAM read, the full group is a causal read (Section 3.2) *)
let test_mixed_group_labels () =
  (* the transitivity chain again; the stale read of x carries a group
     label. Group = {reader}: behaves as PRAM, so the history passes. *)
  let singleton =
    Dsl.make ~procs:3
      [
        [ Dsl.w "x" 1 ];
        [ Dsl.rp "x" 1; Dsl.w "y" 2 ];
        [ Dsl.rp "y" 2; Dsl.rg [ 2 ] "x" 0 ];
      ]
  in
  check "singleton group read behaves as PRAM" true
    (Lattice.is_consistent singleton Lattice.Mixed);
  (* Group = all processes: behaves as Causal, so the stale read fails *)
  let full =
    Dsl.make ~procs:3
      [
        [ Dsl.w "x" 1 ];
        [ Dsl.rp "x" 1; Dsl.w "y" 2 ];
        [ Dsl.rp "y" 2; Dsl.rg [ 0; 1; 2 ] "x" 0 ];
      ]
  in
  check "full group read behaves as causal" false
    (Lattice.is_consistent full Lattice.Mixed);
  (match Lattice.failures full Lattice.Mixed with
  | [ { read_id = 4; label = Op.Group [ 0; 1; 2 ]; _ } ] -> ()
  | _ -> Alcotest.fail "expected exactly the group-labelled read to fail");
  (* the intermediate group {1,2} already sees p1's forwarding of x, so
     the stale read fails there too: the spectrum is monotone *)
  let intermediate =
    Dsl.make ~procs:3
      [
        [ Dsl.w "x" 1 ];
        [ Dsl.rp "x" 1; Dsl.w "y" 2 ];
        [ Dsl.rp "y" 2; Dsl.rg [ 1; 2 ] "x" 0 ];
      ]
  in
  check "group {1,2} maintains causality through p1" false
    (Lattice.is_consistent intermediate Lattice.Mixed)

(* FIFO violation: not even PRAM *)
let test_not_pram () =
  let h =
    Dsl.make ~procs:2
      [ [ Dsl.w "x" 1; Dsl.w "x" 2 ]; [ Dsl.rp "x" 2; Dsl.rp "x" 1 ] ]
  in
  check "second read violates writer order" false (Lattice.is_consistent h Lattice.PRAM);
  check "and is not causal either" false (Lattice.is_consistent h Lattice.Causal)

(* Two concurrent writes may be observed in different orders by
   different processes under PRAM/causal memory - but not under SC *)
let test_write_order_disagreement () =
  let h =
    Dsl.make ~procs:4
      [
        [ Dsl.w "x" 1 ];
        [ Dsl.w "x" 2 ];
        [ Dsl.rc "x" 1; Dsl.rc "x" 2 ];
        [ Dsl.rc "x" 2; Dsl.rc "x" 1 ];
      ]
  in
  check "causal allows disagreement" true (Lattice.is_consistent h Lattice.Causal);
  check "SC forbids disagreement" true
    (Sequential.is_sequentially_consistent h = Sequential.Inconsistent)

(* Await synchronization strengthens PRAM: the awaited write's process
   is directly synchronized with the awaiting process *)
let test_await_strengthens_pram () =
  let stale =
    Dsl.make ~procs:2
      [ [ Dsl.w "y" 5; Dsl.w "x" 1 ]; [ Dsl.await "x" 1; Dsl.rp "y" 0 ] ]
  in
  check "stale read after await is not PRAM" false
    (Lattice.is_consistent stale Lattice.PRAM);
  let fresh =
    Dsl.make ~procs:2
      [ [ Dsl.w "y" 5; Dsl.w "x" 1 ]; [ Dsl.await "x" 1; Dsl.rp "y" 5 ] ]
  in
  check "fresh read after await is PRAM" true (Lattice.is_consistent fresh Lattice.PRAM)

(* Lock hand-off: PRAM reads see only the immediately preceding holder
   (Section 6), causal reads see all prior holders *)
let lock_chain ~last_read =
  Dsl.make ~procs:3
    [
      [ Dsl.wl ~seq:0 "m"; Dsl.w "x" 1; Dsl.wu ~seq:1 "m" ];
      [ Dsl.wl ~seq:2 "m"; Dsl.w "y" 2; Dsl.wu ~seq:3 "m" ];
      [ Dsl.wl ~seq:4 "m"; last_read; Dsl.wu ~seq:5 "m" ];
    ]

let test_lock_handoff_pram_vs_causal () =
  let stale_x = lock_chain ~last_read:(Dsl.rp "x" 0) in
  check "PRAM read may miss the holder-before-last" true
    (Lattice.is_consistent stale_x Lattice.PRAM);
  let stale_x_causal = lock_chain ~last_read:(Dsl.rc "x" 0) in
  check "causal read must see the holder-before-last" false
    (Lattice.is_consistent stale_x_causal Lattice.Causal);
  let fresh_y = lock_chain ~last_read:(Dsl.rp "y" 0) in
  check "PRAM read must see the immediately preceding holder" false
    (Lattice.is_consistent fresh_y Lattice.PRAM)

(* ------------------------------------------------------------------ *)
(* Sequential consistency and replay                                   *)
(* ------------------------------------------------------------------ *)

let test_replay_valid_order () =
  let h = Dsl.make ~procs:2 [ [ Dsl.w "x" 1 ]; [ Dsl.rc "x" 1; Dsl.w "x" 2 ] ] in
  check "good order" true (Sequential.replay h [ 0; 1; 2 ] = Ok ());
  check "bad order" true (Result.is_error (Sequential.replay h [ 1; 0; 2 ]));
  check "wrong length" true (Result.is_error (Sequential.replay h [ 0; 1 ]));
  check "duplicate" true (Result.is_error (Sequential.replay h [ 0; 0; 1 ]))

let test_replay_lock_discipline () =
  let h =
    Dsl.make ~procs:2
      [
        [ Dsl.wl ~seq:0 "m"; Dsl.wu ~seq:1 "m" ];
        [ Dsl.wl ~seq:2 "m"; Dsl.wu ~seq:3 "m" ];
      ]
  in
  check "serialized critical sections" true
    (Sequential.replay h [ 0; 1; 2; 3 ] = Ok ());
  check "interleaved write locks rejected" true
    (Result.is_error (Sequential.replay h [ 0; 2; 1; 3 ]))

let test_replay_decrement () =
  let h =
    Dsl.make ~procs:1
      [ [ Dsl.w "c" 5; Dsl.dec "c" ~amount:2 ~observed:5; Dsl.rc "c" 3 ] ]
  in
  check "decrement observes and installs" true
    (Sequential.replay h [ 0; 1; 2 ] = Ok ());
  (* the recorded pre-value disagrees with the replay state (as happens
     for concurrent commuting decrements observed at different replicas);
     the state still advances by the decremented amount *)
  let wrong =
    Dsl.make ~procs:1
      [ [ Dsl.w "c" 5; Dsl.dec "c" ~amount:2 ~observed:4; Dsl.rc "c" 3 ] ]
  in
  check "wrong observation rejected" true
    (Result.is_error (Sequential.replay wrong [ 0; 1; 2 ]));
  check "unchecked mode tolerates it" true
    (Sequential.replay ~check_observed:false wrong [ 0; 1; 2 ] = Ok ())

let test_respects_causality () =
  let h = Dsl.make ~procs:2 [ [ Dsl.w "x" 1 ]; [ Dsl.rc "x" 1 ] ] in
  check "rf order respected" true (Sequential.respects_causality h [ 0; 1 ]);
  check "rf order violated" false (Sequential.respects_causality h [ 1; 0 ])

let test_sc_search_finds_witness () =
  let h =
    Dsl.make ~procs:2
      [ [ Dsl.w "x" 1; Dsl.rc "y" 2 ]; [ Dsl.w "y" 2; Dsl.rc "x" 1 ] ]
  in
  let witness, answer = Sequential.witness h in
  check "consistent" true (answer = Sequential.Consistent);
  match witness with
  | Some order ->
    check "witness replays" true (Sequential.replay h order = Ok ());
    check "witness respects causality" true (Sequential.respects_causality h order)
  | None -> Alcotest.fail "expected a witness"

let test_sc_budget () =
  check "tiny budget gives Unknown" true
    (Sequential.is_sequentially_consistent ~max_states:1 dekker = Sequential.Unknown)

(* ------------------------------------------------------------------ *)
(* Commutativity and Theorem 1                                         *)
(* ------------------------------------------------------------------ *)

let mk ?(proc = 0) kind : Op.t =
  { id = 0; proc; kind; inv_seq = 0; resp_seq = 1; sync_seq = -1 }

let test_commute_rules () =
  let w_x = mk (Op.Write { loc = "x"; value = 1 }) in
  let w_x' = mk (Op.Write { loc = "x"; value = 2 }) in
  let w_y = mk (Op.Write { loc = "y"; value = 3 }) in
  let r_x = mk (Op.Read { loc = "x"; label = Op.Causal; value = 1 }) in
  let r_x' = mk (Op.Read { loc = "x"; label = Op.PRAM; value = 2 }) in
  let d_c = mk (Op.Decrement { loc = "c"; amount = 1; observed = 5 }) in
  let d_c' = mk (Op.Decrement { loc = "c"; amount = 2; observed = 4 }) in
  let r_c = mk (Op.Read { loc = "c"; label = Op.Causal; value = 3 }) in
  let bar = mk (Op.Barrier 0) in
  check "writes to same location conflict" false (Commute.commute w_x w_x');
  check "writes to different locations commute" true (Commute.commute w_x w_y);
  check "reads commute" true (Commute.commute r_x r_x');
  check "read/write same location conflict" false (Commute.commute w_x r_x);
  check "decrements commute" true (Commute.commute d_c d_c');
  check "decrement vs read conflict" false (Commute.commute d_c r_c);
  check "barrier commutes" true (Commute.commute bar w_x);
  let rl1 = mk (Op.Read_lock "m") and rl2 = mk ~proc:1 (Op.Read_lock "m") in
  let wl = mk ~proc:1 (Op.Write_lock "m") in
  check "read locks commute" true (Commute.commute rl1 rl2);
  check "write lock conflicts with read lock" false (Commute.commute rl1 wl)

let test_theorem1_positive () =
  (* disjoint writes + causal reads: premises hold, hence SC *)
  let h =
    Dsl.make ~procs:2
      [ [ Dsl.w "x" 1; Dsl.rc "x" 1 ]; [ Dsl.w "y" 2; Dsl.rc "y" 2 ] ]
  in
  check "theorem 1 premises hold" true (Commute.theorem1_holds h);
  check "and the history is indeed SC" true
    (Sequential.is_sequentially_consistent h = Sequential.Consistent)

let test_theorem1_negative () =
  (* Dekker: unrelated writes and reads on the same locations conflict *)
  let r = Commute.theorem1_report dekker in
  check "non-commuting pairs found" true (r.Commute.non_commuting_pairs <> []);
  check "premises fail" false (Commute.theorem1_holds dekker)

let test_theorem1_handshake_shape () =
  (* miniature Fig. 3 round: worker writes x, handshakes through the
     coordinator with awaits; the only potentially-conflicting accesses
     are ordered by causality, so Theorem 1 applies *)
  let h =
    Dsl.make ~procs:2
      [
        [ Dsl.await "computed" 1; Dsl.rc "x" 10; Dsl.w "ack" 1 ];
        [ Dsl.w "x" 10; Dsl.w "computed" 1; Dsl.await "ack" 1 ];
      ]
  in
  check "handshake satisfies Theorem 1" true (Commute.theorem1_holds h);
  check "SC" true (Sequential.is_sequentially_consistent h = Sequential.Consistent)

(* ------------------------------------------------------------------ *)
(* Program classes (Corollaries 1 and 2)                               *)
(* ------------------------------------------------------------------ *)

let test_entry_consistent_program () =
  let h =
    Dsl.make ~procs:2
      [
        [ Dsl.wl ~seq:0 "m"; Dsl.w "x" 1; Dsl.wu ~seq:1 "m" ];
        [ Dsl.rl ~seq:2 "m"; Dsl.rc "x" 1; Dsl.ru ~seq:3 "m" ];
      ]
  in
  (match Program_class.locksets h with
  | [ { loc = "x"; candidates; _ } ] -> check "x covered by m" true (candidates = [ "m" ])
  | _ -> Alcotest.fail "expected one shared location, x");
  check "classified entry-consistent" true (Program_class.is_entry_consistent h);
  (* Corollary 1: with causal reads the history is SC *)
  check "corollary 1 conclusion" true
    (Sequential.is_sequentially_consistent h = Sequential.Consistent)

let test_entry_violations () =
  let unlocked_write =
    Dsl.make ~procs:2
      [ [ Dsl.w "x" 1 ]; [ Dsl.rl ~seq:0 "m"; Dsl.rc "x" 1; Dsl.ru ~seq:1 "m" ] ]
  in
  check "write outside lock detected" false
    (Program_class.is_entry_consistent unlocked_write);
  (match Program_class.locksets unlocked_write with
  | [ { loc = "x"; candidates = []; first_unprotected = Some 0; _ } ] -> ()
  | _ -> Alcotest.fail "expected x's candidates emptied by the unlocked write, op 0");
  let read_lock_write =
    Dsl.make ~procs:2
      [
        [ Dsl.rl ~seq:0 "m"; Dsl.w "x" 1; Dsl.ru ~seq:1 "m" ];
        [ Dsl.rl ~seq:2 "m"; Dsl.rc "x" 1; Dsl.ru ~seq:3 "m" ];
      ]
  in
  check "write under read lock detected" false
    (Program_class.is_entry_consistent read_lock_write)

let test_entry_consistent_private_vars_ignored () =
  (* x is only accessed by one process: not shared, no lock needed *)
  let h = Dsl.make ~procs:2 [ [ Dsl.w "x" 1; Dsl.rc "x" 1 ]; [ Dsl.w "y" 2 ] ] in
  check "private variables exempt" true (Program_class.is_entry_consistent h)

let test_pram_consistent_program () =
  (* Fig. 2 shape: reads in one phase, the unique write in the next *)
  let h =
    Dsl.make ~procs:2
      [
        [ Dsl.rp "x" 0; Dsl.bar 0; Dsl.w "x" 1; Dsl.bar 1 ];
        [ Dsl.rp "x" 0; Dsl.bar 0; Dsl.bar 1; Dsl.rp "x" 1 ];
      ]
  in
  check "PRAM-consistent" true (Program_class.is_pram_consistent h);
  check "corollary 2 conclusion" true
    (Sequential.is_sequentially_consistent h = Sequential.Consistent)

let test_pram_inconsistent_programs () =
  let double_write =
    Dsl.make ~procs:2 [ [ Dsl.w "x" 1; Dsl.w "x" 2 ]; [ Dsl.rp "x" 2 ] ]
  in
  check "two updates in one phase" false
    (Program_class.is_pram_consistent double_write);
  let read_with_write =
    Dsl.make ~procs:2 [ [ Dsl.w "x" 1 ]; [ Dsl.rp "x" 1 ] ]
  in
  check "cross-process read in the write phase" false
    (Program_class.is_pram_consistent read_with_write);
  match Program_class.check_pram_consistent read_with_write with
  | [ { loc = "x"; phase = 0; _ } ] -> ()
  | _ -> Alcotest.fail "expected one violation on x in phase 0"

let test_pram_consistent_same_proc_read_after_write () =
  let h = Dsl.make ~procs:2 [ [ Dsl.w "x" 1; Dsl.rp "x" 1 ]; [ Dsl.rp "x" 0; Dsl.bar 0 ] ] in
  (* x is written and read by p0 in phase 0 (read after write: fine), but
     also read by p1 in phase 0: violation *)
  check "own read after write ok, foreign read not" false
    (Program_class.is_pram_consistent h);
  let ok =
    Dsl.make ~procs:2 [ [ Dsl.w "x" 1; Dsl.rp "x" 1; Dsl.bar 0 ]; [ Dsl.bar 0; Dsl.rp "x" 1 ] ]
  in
  check_int "no violation for own ordered read" 0
    (List.length (Program_class.check_pram_consistent ok))

let () =
  Alcotest.run "mc_consistency"
    [
      ( "read_rule",
        [
          Alcotest.test_case "verdicts" `Quick test_read_rule_verdicts;
          Alcotest.test_case "own writes visible" `Quick test_own_write_visible;
        ] );
      ( "separations",
        [
          Alcotest.test_case "dekker: causal, not SC" `Quick test_dekker_causal_not_sc;
          Alcotest.test_case "chain: PRAM, not causal" `Quick test_pram_not_causal;
          Alcotest.test_case "mixed labels (Definition 4)" `Quick test_mixed_labels;
          Alcotest.test_case "group labels (Section 3.2)" `Quick test_mixed_group_labels;
          Alcotest.test_case "FIFO violation: not PRAM" `Quick test_not_pram;
          Alcotest.test_case "write-order disagreement" `Quick test_write_order_disagreement;
          Alcotest.test_case "await strengthens PRAM" `Quick test_await_strengthens_pram;
          Alcotest.test_case "lock hand-off visibility" `Quick test_lock_handoff_pram_vs_causal;
        ] );
      ( "sequential",
        [
          Alcotest.test_case "replay orders" `Quick test_replay_valid_order;
          Alcotest.test_case "replay lock discipline" `Quick test_replay_lock_discipline;
          Alcotest.test_case "replay decrements" `Quick test_replay_decrement;
          Alcotest.test_case "respects_causality" `Quick test_respects_causality;
          Alcotest.test_case "search finds a witness" `Quick test_sc_search_finds_witness;
          Alcotest.test_case "bounded search returns Unknown" `Quick test_sc_budget;
        ] );
      ( "theorem1",
        [
          Alcotest.test_case "commutativity rules" `Quick test_commute_rules;
          Alcotest.test_case "premises imply SC" `Quick test_theorem1_positive;
          Alcotest.test_case "dekker violates premises" `Quick test_theorem1_negative;
          Alcotest.test_case "handshake shape" `Quick test_theorem1_handshake_shape;
        ] );
      ( "program_classes",
        [
          Alcotest.test_case "entry-consistent program" `Quick test_entry_consistent_program;
          Alcotest.test_case "entry violations" `Quick test_entry_violations;
          Alcotest.test_case "private variables exempt" `Quick test_entry_consistent_private_vars_ignored;
          Alcotest.test_case "PRAM-consistent phases" `Quick test_pram_consistent_program;
          Alcotest.test_case "PRAM-inconsistent phases" `Quick test_pram_inconsistent_programs;
          Alcotest.test_case "same-process read after write" `Quick test_pram_consistent_same_proc_read_after_write;
        ] );
    ]
