(* Tests for the formal history model: operations, recording, derived
   relations and well-formedness (Section 3 of the paper). *)

module Op = Mc_history.Op
module History = Mc_history.History
module Recorder = Mc_history.Recorder
module Dsl = Mc_history.Dsl
module Relation = Mc_util.Relation
module Lattice = Mc_consistency.Lattice

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Op                                                                  *)
(* ------------------------------------------------------------------ *)

let mk kind : Op.t = { id = 0; proc = 0; kind; inv_seq = 0; resp_seq = 1; sync_seq = -1 }

let test_op_classification () =
  let w = mk (Op.Write { loc = "x"; value = 3 }) in
  let r = mk (Op.Read { loc = "x"; label = Op.PRAM; value = 3 }) in
  let d = mk (Op.Decrement { loc = "c"; amount = 2; observed = 5 }) in
  let a = mk (Op.Await { loc = "x"; value = 3 }) in
  let b = mk (Op.Barrier 0) in
  let l = mk (Op.Write_lock "m") in
  check "write writes" true (Op.writes_value w = Some ("x", 3));
  check "read reads" true (Op.reads_value r = Some ("x", 3));
  check "dec writes observed - amount" true (Op.writes_value d = Some ("c", 3));
  check "dec observes" true (Op.reads_value d = Some ("c", 5));
  check "await reads" true (Op.reads_value a = Some ("x", 3));
  check "barrier neither" true (Op.writes_value b = None && Op.reads_value b = None);
  check "read is memory read" true (Op.is_memory_read r);
  check "await is not memory read" false (Op.is_memory_read a);
  check "dec is write-like" true (Op.is_write_like d);
  check "lock is sync" true (Op.is_sync l);
  check "lock object" true (Op.lock_of l = Some "m");
  check "to_string mentions location" true
    (String.length (Op.to_string w) > 0)

(* ------------------------------------------------------------------ *)
(* Recorder                                                            *)
(* ------------------------------------------------------------------ *)

let test_recorder_sequencing () =
  let r = Recorder.create ~procs:2 () in
  let id0 = Recorder.record r ~proc:0 (Op.Write { loc = "x"; value = 1 }) in
  let id1 = Recorder.record r ~proc:0 (Op.Read { loc = "x"; label = Op.Causal; value = 1 }) in
  let id2 = Recorder.record r ~proc:1 (Op.Write { loc = "y"; value = 2 }) in
  check_int "ids sequential" 0 id0;
  check_int "ids sequential" 1 id1;
  check_int "ids sequential" 2 id2;
  let h = Recorder.history r in
  check_int "procs" 2 (History.procs h);
  let po = History.program_order h in
  check "same proc ordered" true (Relation.mem po 0 1);
  check "cross proc unordered" false (Relation.mem po 0 2 || Relation.mem po 2 0)

let test_recorder_overlap () =
  let r = Recorder.create ~procs:1 () in
  let t1 = Recorder.start r ~proc:0 in
  let t2 = Recorder.start r ~proc:0 in
  let _id1 = Recorder.finish r t1 (Op.Write { loc = "x"; value = 1 }) in
  let _id2 = Recorder.finish r t2 (Op.Write { loc = "y"; value = 2 }) in
  let h = Recorder.history r in
  let po = History.program_order h in
  check "overlapping ops unordered" false (Relation.mem po 0 1 || Relation.mem po 1 0)

let test_recorder_grant_seq () =
  let r = Recorder.create ~procs:1 () in
  check_int "first grant" 0 (Recorder.grant_seq r "l");
  check_int "second grant" 1 (Recorder.grant_seq r "l");
  check_int "other lock independent" 0 (Recorder.grant_seq r "m")

(* ------------------------------------------------------------------ *)
(* Derived relations                                                   *)
(* ------------------------------------------------------------------ *)

let test_reads_from () =
  let h =
    Dsl.make ~procs:2 [ [ Dsl.w "x" 1 ]; [ Dsl.rc "x" 1; Dsl.rp "x" 0 ] ]
  in
  let rf = History.reads_from h in
  check "write to read edge" true (Relation.mem rf 0 1);
  check "initial read has no edge" true (Relation.predecessors rf 2 = []);
  Alcotest.(check (list int)) "writers_of" [ 0 ] (History.writers_of h "x" 1)

let test_await_order () =
  let h = Dsl.make ~procs:2 [ [ Dsl.w "x" 5 ]; [ Dsl.await "x" 5; Dsl.rc "y" 0 ] ] in
  let ao = History.await_order h in
  check "write before await" true (Relation.mem ao 0 1);
  let causality = History.causality h in
  check "causality includes await edge" true (Relation.mem causality 0 2)

let test_barrier_order () =
  let h =
    Dsl.make ~procs:2
      [ [ Dsl.w "x" 1; Dsl.bar 0; Dsl.rp "y" 2 ]; [ Dsl.w "y" 2; Dsl.bar 0 ] ]
  in
  let bo = Oracle.barrier_order h in
  (* op ids: p0: w x=1 (0), bar (1), r y (2); p1: w y=2 (3), bar (4) *)
  check "pre-barrier write ordered before remote barrier" true (Relation.mem bo 0 4);
  check "remote barrier ordered before post-barrier read" true (Relation.mem bo 4 2);
  check "same-episode barriers unordered" false
    (Relation.mem bo 1 4 || Relation.mem bo 4 1);
  (* hence the remote write is causally before the read, through the
     covering's episode edges *)
  let causality = History.causality h in
  check "w y -> r y via barrier" true (Relation.mem causality 3 2);
  check "covering closes to the barrier order" true
    (Relation.mem causality 0 4 && Relation.mem causality 4 2)

let test_lock_order_epochs () =
  (* two write critical sections and one read epoch, ordered by grant seq *)
  let h =
    Dsl.make ~procs:3
      [
        [ Dsl.wl ~seq:0 "m"; Dsl.w "x" 1; Dsl.wu ~seq:1 "m" ];
        [ Dsl.wl ~seq:4 "m"; Dsl.rc "x" 1; Dsl.wu ~seq:5 "m" ];
        [ Dsl.rl ~seq:2 "m"; Dsl.rc "x" 1; Dsl.ru ~seq:3 "m" ];
      ]
  in
  let lo = Oracle.lock_order h in
  (* ids: p0: wl 0, w 1, wu 2; p1: wl 3, r 4, wu 5; p2: rl 6, r 7, ru 8 *)
  check "epoch 1 before read epoch" true (Relation.mem lo 2 6);
  check "read epoch before epoch 2" true (Relation.mem lo 8 3);
  check "wl before wu in epoch" true (Relation.mem lo 0 2);
  check "transitive epoch ordering" true (Relation.mem lo 0 3);
  (* reduced order drops the transitive epoch edge *)
  let red = History.sync_order_reduced h in
  check "reduction keeps adjacent" true (Relation.mem red 2 6);
  check "reduction drops distant" false (Relation.mem red 0 3);
  check "causality restores distant" true (Relation.mem (History.causality h) 0 3)

let test_concurrent_read_locks_unordered () =
  let h =
    Dsl.make ~procs:2
      [
        [ Dsl.rl ~seq:0 "m"; Dsl.ru ~seq:2 "m" ];
        [ Dsl.rl ~seq:1 "m"; Dsl.ru ~seq:3 "m" ];
      ]
  in
  let lo = Oracle.lock_order h in
  check "read locks of one epoch unordered" false
    (Relation.mem lo 0 2 || Relation.mem lo 2 0);
  check "own unlock ordered" true (Relation.mem lo 0 1);
  let causality = History.causality h in
  check "covering leaves them unordered" false
    (Relation.mem causality 0 2 || Relation.mem causality 2 0);
  check "covering orders own unlock" true (Relation.mem causality 0 1)

let test_causality_acyclic_check () =
  let h = Dsl.make ~procs:1 [ [ Dsl.w "x" 1; Dsl.rc "x" 1 ] ] in
  check "acyclic" true (History.causality_is_acyclic h)

let test_causal_relation_excludes_remote_reads () =
  let h =
    Dsl.make ~procs:3
      [ [ Dsl.w "x" 1 ]; [ Dsl.rc "x" 1 ]; [ Dsl.rc "x" 1 ] ]
  in
  (* for process 2, process 1's read is invisible *)
  let rel = Oracle.causal_relation h 2 in
  check "w -> own read kept" true (Relation.mem rel 0 2);
  check "remote read dropped" false (Relation.mem rel 0 1);
  let rel = Lattice.relation h (Lattice.axioms_of_label Op.Causal) ~reader:2 in
  check "Lattice: w -> own read kept" true (Relation.mem rel 0 2);
  check "Lattice: remote read dropped" false (Relation.mem rel 0 1)

let test_pram_relation_drops_transitive_sync () =
  (* p0 writes x then unlocks; p1 holds the lock next and writes y; p2
     locks third. In the full causal order p2 sees p0's critical section;
     in PRAM order (transitive reduction + only edges touching p2) it is
     only connected to the immediately preceding holder p1. *)
  let h =
    Dsl.make ~procs:3
      [
        [ Dsl.wl ~seq:0 "m"; Dsl.w "x" 1; Dsl.wu ~seq:1 "m" ];
        [ Dsl.wl ~seq:2 "m"; Dsl.w "y" 2; Dsl.wu ~seq:3 "m" ];
        [ Dsl.wl ~seq:4 "m"; Dsl.rp "x" 0; Dsl.wu ~seq:5 "m" ];
      ]
  in
  (* ids: p0: 0 1 2; p1: 3 4 5; p2: 6 7 8 *)
  let causal2 = Oracle.causal_relation h 2 in
  check "causally, p0's write reaches p2's read" true (Relation.mem causal2 1 7);
  let pram2 = Oracle.pram_relation h 2 in
  check "in PRAM order, p0's cs does not reach p2" false (Relation.mem pram2 1 7);
  check "previous holder reaches p2" true (Relation.mem pram2 4 7);
  let rel label = Lattice.relation h (Lattice.axioms_of_label label) ~reader:2 in
  check "Lattice: causally reaches" true (Relation.mem (rel Op.Causal) 1 7);
  let pram2 = rel Op.PRAM in
  check "Lattice: PRAM does not reach" false (Relation.mem pram2 1 7);
  check "Lattice: previous holder reaches" true (Relation.mem pram2 4 7)

(* ------------------------------------------------------------------ *)
(* Well-formedness                                                     *)
(* ------------------------------------------------------------------ *)

let test_well_formed_history () =
  let h =
    Dsl.make ~procs:2
      [
        [ Dsl.wl ~seq:0 "m"; Dsl.w "x" 1; Dsl.wu ~seq:1 "m"; Dsl.bar 0 ];
        [ Dsl.bar 0; Dsl.rc "x" 1 ];
      ]
  in
  Alcotest.(check int) "no violations" 0
    (List.length (History.well_formedness_violations h))

let test_unmatched_unlock_detected () =
  let h = Dsl.make ~procs:1 [ [ Dsl.wu ~seq:0 "m" ] ] in
  check "violation found" true (History.well_formedness_violations h <> [])

let test_double_write_lock_detected () =
  let h =
    Dsl.make ~procs:2
      [ [ Dsl.wl ~seq:0 "m"; Dsl.wu ~seq:3 "m" ]; [ Dsl.wl ~seq:1 "m"; Dsl.wu ~seq:2 "m" ] ]
  in
  check "overlapping write locks detected" true
    (History.well_formedness_violations h <> [])

let test_duplicate_write_values_detected () =
  let h = Dsl.make ~procs:2 [ [ Dsl.w "x" 1 ]; [ Dsl.w "x" 1 ] ] in
  check "unique-writes violation" true (History.well_formedness_violations h <> [])

let test_missing_grant_seq_detected () =
  let h = Dsl.make ~procs:1 [ [ Dsl.wl ~seq:(-1) "m"; Dsl.wu ~seq:(-1) "m" ] ] in
  check "missing manager order detected" true
    (History.well_formedness_violations h <> [])

let test_overlapping_same_object_ops_detected () =
  let r = Recorder.create ~procs:1 () in
  let t1 = Recorder.start r ~proc:0 in
  let t2 = Recorder.start r ~proc:0 in
  ignore (Recorder.finish r t1 (Op.Write { loc = "x"; value = 1 }));
  ignore (Recorder.finish r t2 (Op.Write { loc = "x"; value = 2 }));
  let h = Recorder.history r in
  check "two pending invocations on one object" true
    (History.well_formedness_violations h <> [])

let test_overlapping_barrier_detected () =
  let r = Recorder.create ~procs:1 () in
  let t1 = Recorder.start r ~proc:0 in
  let t2 = Recorder.start r ~proc:0 in
  ignore (Recorder.finish r t1 (Op.Barrier 0));
  ignore (Recorder.finish r t2 (Op.Write { loc = "x"; value = 1 }));
  let h = Recorder.history r in
  check "barrier must be totally ordered" true
    (History.well_formedness_violations h <> [])

(* Random histories, mostly malformed: operations of up to three
   processes on two locations and two locks, with barriers, invocation
   and response numbers drawn from a small range (so operations on one
   object overlap, barriers overlap, event numbers repeat and some
   invocations follow their response), grant numbers that repeat, go
   missing or grant a held lock, and written values that repeat. The
   grouped checks must report what the pairwise ones report, in the
   same order. *)
let random_history_gen =
  QCheck.Gen.(
    int_range 1 3 >>= fun procs ->
    let op_gen =
      map4
        (fun proc (kind, name, value) inv (len, sync_seq) ->
          let loc = [| "x"; "y" |].(name) and lock = [| "m"; "n" |].(name) in
          let kind =
            match kind with
            | 0 -> Op.Read { loc; label = Op.PRAM; value }
            | 1 -> Op.Write { loc; value }
            | 2 -> Op.Decrement { loc; amount = 1; observed = value }
            | 3 -> Op.Await { loc; value }
            | 4 -> Op.Write_lock lock
            | 5 -> Op.Write_unlock lock
            | 6 -> Op.Read_lock lock
            | 7 -> Op.Read_unlock lock
            | 8 -> Op.Barrier value
            | _ -> Op.Barrier_group { episode = value; members = [ 0; proc ] }
          in
          (proc, kind, inv, inv + len, sync_seq))
        (int_bound (procs - 1))
        (triple (int_bound 9) (int_bound 1) (int_bound 3))
        (int_bound 30)
        (pair (int_range (-2) 6) (int_range (-1) 8))
    in
    map
      (fun ops ->
        History.create ~procs
          (Array.of_list
             (List.mapi
                (fun id (proc, kind, inv_seq, resp_seq, sync_seq) ->
                  { Op.id; proc; kind; inv_seq; resp_seq; sync_seq })
                ops)))
      (list_size (int_bound 24) op_gen))

let well_formedness_differential =
  QCheck.Test.make ~name:"grouped checks = pairwise checks" ~count:1000
    (QCheck.make ~print:(Format.asprintf "%a" History.pp) random_history_gen)
    (fun h -> History.well_formedness_violations h = Oracle.well_formedness_violations h)

let () =
  Alcotest.run "mc_history"
    [
      ( "op",
        [ Alcotest.test_case "classification" `Quick test_op_classification ] );
      ( "recorder",
        [
          Alcotest.test_case "sequential recording" `Quick test_recorder_sequencing;
          Alcotest.test_case "overlapping operations" `Quick test_recorder_overlap;
          Alcotest.test_case "grant sequences" `Quick test_recorder_grant_seq;
        ] );
      ( "relations",
        [
          Alcotest.test_case "reads-from" `Quick test_reads_from;
          Alcotest.test_case "await order" `Quick test_await_order;
          Alcotest.test_case "barrier order" `Quick test_barrier_order;
          Alcotest.test_case "lock epochs" `Quick test_lock_order_epochs;
          Alcotest.test_case "concurrent read locks" `Quick test_concurrent_read_locks_unordered;
          Alcotest.test_case "acyclicity" `Quick test_causality_acyclic_check;
          Alcotest.test_case "causal relation restriction" `Quick test_causal_relation_excludes_remote_reads;
          Alcotest.test_case "pram relation reduction" `Quick test_pram_relation_drops_transitive_sync;
        ] );
      ( "well-formedness",
        [
          Alcotest.test_case "well-formed history" `Quick test_well_formed_history;
          Alcotest.test_case "unmatched unlock" `Quick test_unmatched_unlock_detected;
          Alcotest.test_case "double write lock" `Quick test_double_write_lock_detected;
          Alcotest.test_case "duplicate write values" `Quick test_duplicate_write_values_detected;
          Alcotest.test_case "missing grant order" `Quick test_missing_grant_seq_detected;
          Alcotest.test_case "overlapping ops on one object" `Quick test_overlapping_same_object_ops_detected;
          Alcotest.test_case "overlapping barrier" `Quick test_overlapping_barrier_detected;
          QCheck_alcotest.to_alcotest well_formedness_differential;
        ] );
    ]
