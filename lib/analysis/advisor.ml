module History = Mc_history.History
module Op = Mc_history.Op
module Pc = Mc_consistency.Program_class
module Lattice = Mc_consistency.Lattice

type advice = {
  read_id : int;
  declared : Op.label;
  declared_valid : bool;
  recommended : Op.label option;
  rec_model : Lattice.t option;
}

let label_to_string = function
  | Op.PRAM -> "PRAM"
  | Op.Causal -> "Causal"
  | Op.Group g ->
    Printf.sprintf "Group{%s}" (String.concat "," (List.map string_of_int g))

let strength = function Op.PRAM -> 0 | Op.Group _ -> 1 | Op.Causal -> 2

let advise ?shared h =
  let shared =
    match shared with Some f -> f | None -> Pc.default_shared h
  in
  let entry = Pc.is_entry_consistent ~shared h in
  let pramc = Pc.is_pram_consistent ~shared h in
  (* each lattice point's failing reads, fetched once per history on
     first use: one [Lattice.failures] call per point, where per-read
     verdicts would build a closure per (point, reader). A point that
     raises (a group with a member out of range) validates nothing. *)
  let failing = Hashtbl.create 8 in
  let lvalid m ~read_id =
    let f =
      match Hashtbl.find_opt failing m with
      | Some f -> f
      | None ->
        let f =
          match Lattice.failures h m with
          | fs ->
            let f = Array.make (History.length h) false in
            List.iter (fun (x : Lattice.failure) -> f.(x.Lattice.read_id) <- true) fs;
            Some f
          | exception Invalid_argument _ -> None
        in
        Hashtbl.add failing m f;
        f
    in
    match f with Some f -> not f.(read_id) | None -> false
  in
  let advices = ref [] in
  Array.iter
    (fun (o : Op.t) ->
      match o.kind with
      | Op.Read { loc; label; value = _ } ->
        let read_id = o.id in
        (* a label's point; a group label must name the reader, so a
           malformed group validates nothing *)
        let valid = function
          | Op.PRAM -> lvalid Lattice.PRAM ~read_id
          | Op.Causal -> lvalid Lattice.Causal ~read_id
          | Op.Group g -> List.mem o.proc g && lvalid (Lattice.Group g) ~read_id
        in
        let declared_valid = valid label in
        let candidates =
          Op.PRAM
          :: (match label with Op.Group _ -> [ label ] | _ -> [])
          @ [ Op.Causal ]
        in
        let weakest = List.find_opt valid candidates in
        let recommended =
          if pramc && valid Op.PRAM then Some Op.PRAM (* Corollary 2 *)
          else if entry && shared loc && valid Op.Causal then
            Some Op.Causal (* Corollary 1 needs causal reads on [loc] *)
          else weakest
        in
        (* the weakest lattice point validating this read in this
           schedule — the same search as [weakest], extended downward
           through the session points below PRAM. Purely advisory: the
           SC corollaries never require going below [recommended]. *)
        let rec_model =
          List.find_opt
            (fun m -> lvalid m ~read_id)
            (Lattice.
               [
                 Session [];
                 Session [ Read_your_writes ];
                 Session [ Monotonic_reads ];
                 Session [ Read_your_writes; Monotonic_reads ];
                 PRAM;
               ]
            @ (match label with Op.Group g -> [ Lattice.Group g ] | _ -> [])
            @ [ Lattice.Causal ])
        in
        advices :=
          { read_id; declared = label; declared_valid; recommended; rec_model }
          :: !advices
      | _ -> ())
    (History.ops h);
  List.rev !advices

let diagnostics h advices =
  let ops = History.ops h in
  List.filter_map
    (fun { read_id; declared; declared_valid; recommended; rec_model } ->
      let o = ops.(read_id) in
      let loc = Option.map fst (Op.reads_value o) in
      let mk ~rule ~severity msg =
        Some (Diag.make ~rule ~severity ~op_id:read_id ~proc:o.Op.proc ?loc msg)
      in
      match (declared_valid, recommended) with
      | _, None ->
        mk ~rule:"A003" ~severity:Diag.Error
          (Printf.sprintf
             "read %d: no label on the spectrum validates the value read"
             read_id)
      | true, Some r when strength r < strength declared ->
        mk ~rule:"A001" ~severity:Diag.Info
          (Printf.sprintf
             "read %d is over-labelled: %s suffices instead of %s (weaker \
              delivery synchronization)"
             read_id (label_to_string r) (label_to_string declared))
      | true, Some r when strength r > strength declared ->
        mk ~rule:"A002" ~severity:Diag.Warning
          (Printf.sprintf
             "read %d validates under %s in this schedule, but the \
              entry-consistency guarantee (Corollary 1) requires %s"
             read_id (label_to_string declared) (label_to_string r))
      | true, Some _ -> (
        (* correctly labelled on the spectrum; still surface a lattice
           move when a session point below PRAM validates the read *)
        match rec_model with
        | Some (Lattice.Session _ as m) ->
          mk ~rule:"A004" ~severity:Diag.Info
            (Printf.sprintf
               "read %d: lattice move %s -> %s validates in this schedule \
                (session guarantees are schedule-dependent; the declared \
                label keeps the SC guarantee)"
               read_id (label_to_string declared) (Lattice.to_string m))
        | _ -> None)
      | false, Some r ->
        mk ~rule:"A002" ~severity:Diag.Warning
          (Printf.sprintf
             "read %d: declared label %s does not validate the value read; \
              %s does"
             read_id (label_to_string declared) (label_to_string r)))
    advices
