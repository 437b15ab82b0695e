(* Property-based tests of the consistency hierarchy on randomly
   generated histories:

   - causal validity implies PRAM validity (Definition 3 is weaker);
   - the group spectrum is monotone: growing the group only removes
     behaviours, with PRAM and causal as its end points (Section 3.2);
   - sequential consistency implies causal consistency;
   - Theorem 1's premises imply sequential consistency;
   - the SC search agrees with replay on its own witnesses. *)

module Op = Mc_history.Op
module History = Mc_history.History
module Recorder = Mc_history.Recorder
module Lattice = Mc_consistency.Lattice
module Read_rule = Mc_consistency.Read_rule
module Sequential = Mc_consistency.Sequential
module Commute = Mc_consistency.Commute

(* ------------------------------------------------------------------ *)
(* Random history generation                                           *)
(* ------------------------------------------------------------------ *)

(* A compact encodable description: per process, a list of op choices.
   Writes get globally unique values (their index); reads guess a value
   among the written ones or 0, so generated histories are a healthy mix
   of consistent and inconsistent. *)

type op_choice = { is_write : bool; loc : int; guess : int; causal_label : bool }

let history_of_choices ~procs (choices : op_choice list list) =
  let rec_ = Recorder.create ~procs () in
  let next_value = ref 0 in
  let all_values = ref [ 0 ] in
  (* pre-assign write values in order so read guesses can refer to them *)
  let programs =
    List.map
      (fun per_proc ->
        List.map
          (fun c ->
            if c.is_write then begin
              incr next_value;
              all_values := !next_value :: !all_values;
              `Write (c.loc, !next_value)
            end
            else `Read (c.loc, c.guess, c.causal_label))
          per_proc)
      choices
  in
  let values = Array.of_list (List.rev !all_values) in
  List.iteri
    (fun proc prog ->
      List.iter
        (fun op ->
          match op with
          | `Write (loc, v) ->
            ignore
              (Recorder.record rec_ ~proc
                 (Op.Write { loc = "v" ^ string_of_int loc; value = v }))
          | `Read (loc, guess, causal_label) ->
            let value = values.(guess mod Array.length values) in
            let label = if causal_label then Op.Causal else Op.PRAM in
            ignore
              (Recorder.record rec_ ~proc
                 (Op.Read { loc = "v" ^ string_of_int loc; label; value })))
        prog)
    programs;
  Recorder.history rec_

let op_choice_gen =
  QCheck.Gen.(
    map4
      (fun is_write loc guess causal_label -> { is_write; loc; guess; causal_label })
      bool (int_bound 2) (int_bound 11) bool)

let choices_gen ~procs ~max_ops =
  QCheck.Gen.(list_size (return procs) (list_size (int_bound max_ops) op_choice_gen))

let history_arb ~procs ~max_ops =
  QCheck.make
    ~print:(fun choices ->
      Format.asprintf "%a" History.pp (history_of_choices ~procs choices))
    (choices_gen ~procs ~max_ops)

(* ------------------------------------------------------------------ *)
(* Hierarchy properties                                                *)
(* ------------------------------------------------------------------ *)

(* the paper restricts attention to histories with acyclic causality
   relations; random read-value guesses can produce a read that
   reads-from a later write of its own process, which is outside the
   model - discard those *)
let acyclic h = QCheck.assume (History.causality_is_acyclic h)

let valid h label ~read_id = Lattice.verdict_at h label ~read_id = Read_rule.Valid

let all_read_ids h =
  Array.to_list (History.ops h)
  |> List.filter_map (fun (o : Op.t) -> if Op.is_memory_read o then Some o.id else None)

let causal_implies_pram =
  QCheck.Test.make ~name:"causal-valid reads are PRAM-valid" ~count:300
    (history_arb ~procs:3 ~max_ops:5)
    (fun choices ->
      let h = history_of_choices ~procs:3 choices in
      acyclic h;
      List.for_all
        (fun read_id ->
          (not (valid h Op.Causal ~read_id)) || valid h Op.PRAM ~read_id)
        (all_read_ids h))

let group_spectrum_endpoints =
  QCheck.Test.make ~name:"group {i} = PRAM verdicts, group all = causal verdicts"
    ~count:300
    (history_arb ~procs:3 ~max_ops:5)
    (fun choices ->
      let h = history_of_choices ~procs:3 choices in
      acyclic h;
      List.for_all
        (fun read_id ->
          let reader = (History.op h read_id).Op.proc in
          valid h (Op.Group [ reader ]) ~read_id = valid h Op.PRAM ~read_id
          && valid h (Op.Group [ 0; 1; 2 ]) ~read_id = valid h Op.Causal ~read_id)
        (all_read_ids h))

let group_monotone =
  QCheck.Test.make ~name:"larger groups only reject more reads" ~count:300
    (history_arb ~procs:3 ~max_ops:5)
    (fun choices ->
      let h = history_of_choices ~procs:3 choices in
      acyclic h;
      List.for_all
        (fun read_id ->
          let reader = (History.op h read_id).Op.proc in
          let other = (reader + 1) mod 3 in
          let mid = List.sort compare [ reader; other ] in
          let small = valid h (Op.Group [ reader ]) ~read_id in
          let medium = valid h (Op.Group mid) ~read_id in
          let full = valid h (Op.Group [ 0; 1; 2 ]) ~read_id in
          ((not medium) || small) && ((not full) || medium))
        (all_read_ids h))

let sc_implies_causal =
  QCheck.Test.make ~name:"sequentially consistent histories are causal" ~count:200
    (history_arb ~procs:2 ~max_ops:4)
    (fun choices ->
      let h = history_of_choices ~procs:2 choices in
      acyclic h;
      match Sequential.is_sequentially_consistent ~max_states:50_000 h with
      | Sequential.Consistent -> Lattice.is_consistent h Lattice.Causal
      | Sequential.Inconsistent | Sequential.Unknown -> true)

let theorem1_implies_sc =
  QCheck.Test.make ~name:"Theorem 1 premises imply sequential consistency"
    ~count:200
    (history_arb ~procs:2 ~max_ops:4)
    (fun choices ->
      let h = history_of_choices ~procs:2 choices in
      acyclic h;
      (not (Commute.theorem1_holds h))
      || Sequential.is_sequentially_consistent ~max_states:100_000 h
         <> Sequential.Inconsistent)

let witness_is_sound =
  QCheck.Test.make ~name:"SC witnesses replay and respect causality" ~count:200
    (history_arb ~procs:2 ~max_ops:4)
    (fun choices ->
      let h = history_of_choices ~procs:2 choices in
      acyclic h;
      match Sequential.witness ~max_states:50_000 h with
      | Some order, Sequential.Consistent ->
        Sequential.replay h order = Ok () && Sequential.respects_causality h order
      | None, (Sequential.Inconsistent | Sequential.Unknown) -> true
      | _ -> false)

let well_formedness_of_generated =
  QCheck.Test.make ~name:"generated histories are well-formed" ~count:300
    (history_arb ~procs:3 ~max_ops:5)
    (fun choices ->
      let h = history_of_choices ~procs:3 choices in
      acyclic h;
      History.is_well_formed h)

(* mixed consistency with per-read labels is implied by the per-level
   checks: a history whose causal-labelled reads are causal-valid and
   PRAM-labelled reads are PRAM-valid (under the per-reader relations
   of Definitions 2 and 3 in test/oracle.ml) is mixed consistent by
   definition *)
let mixed_is_composition =
  QCheck.Test.make ~name:"Definition 4 composes the per-label rules" ~count:300
    (history_arb ~procs:3 ~max_ops:5)
    (fun choices ->
      let h = history_of_choices ~procs:3 choices in
      acyclic h;
      let expected =
        Array.for_all
          (fun (o : Op.t) ->
            let valid_in rel =
              Read_rule.check h (rel h o.proc) ~read_id:o.id = Read_rule.Valid
            in
            match o.kind with
            | Op.Read { label = Op.Causal; _ } -> valid_in Oracle.causal_relation
            | Op.Read { label = Op.PRAM; _ } -> valid_in Oracle.pram_relation
            | _ -> true)
          (History.ops h)
      in
      Lattice.is_consistent h Lattice.Mixed = expected)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "properties"
    [
      ( "hierarchy",
        [
          qt causal_implies_pram;
          qt group_spectrum_endpoints;
          qt group_monotone;
          qt sc_implies_causal;
          qt theorem1_implies_sc;
          qt witness_is_sound;
          qt well_formedness_of_generated;
          qt mixed_is_composition;
        ] );
    ]
