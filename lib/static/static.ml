(* The [Mc_static] driver (ISSUE 6 tentpole, part 5): runs the whole
   pipeline — summary, skeleton, race detection, classification — over
   one IR program and renders the result as S0xx diagnostics, a
   human-readable report or JSON. Nothing here executes the program:
   every judgement holds at every parameter valuation. *)

module Diag = Mc_analysis.Diag
module Json = Mc_util.Json

type report = {
  program : string;
  verdict : Classify.verdict;
  verdict_proof : string;
  srace : Srace.t;
  reads : Classify.read_report list;
  lattice : Classify.lattice_report;
  diags : Diag.t list;
}

let strictly_stronger ~declared ~inferred =
  Classify.label_geq ~declared ~inferred
  && not (Classify.label_geq ~declared:inferred ~inferred:declared)

let diags_of prog (sr : Srace.t) (cl : Classify.t) =
  let races =
    List.map
      (fun (p : Srace.pair) ->
        Diag.make ~rule:"S001" ~severity:Diag.Error
          ~loc:p.Srace.pa.Summary.loc.Pir.base ~site:p.Srace.pa.Summary.site
          (Printf.sprintf
             "conflicting accesses %s (%s) and %s (%s) have no ordering \
              witness at some parameters"
             p.Srace.pa.Summary.site
             (Summary.kind_to_string p.Srace.pa.Summary.kind)
             p.Srace.pb.Summary.site
             (Summary.kind_to_string p.Srace.pb.Summary.kind)))
      sr.Srace.races
  in
  let uncovered =
    List.map
      (fun base ->
        Diag.make ~rule:"S002" ~severity:Diag.Warning ~loc:base
          (Printf.sprintf
             "shared base %s is written by several processes but no \
              single lock discipline guards every access" base))
      sr.Srace.uncovered
  in
  let verdict =
    match cl.Classify.verdict with
    | Classify.Unproved _ ->
      [ Diag.make ~rule:"S004" ~severity:Diag.Warning
          ?site:(Option.map fst cl.Classify.failing)
          cl.Classify.verdict_proof ]
    | _ ->
      [ Diag.make ~rule:"S003" ~severity:Diag.Info
          (Printf.sprintf "%s: %s"
             (Classify.verdict_to_string cl.Classify.verdict)
             cl.Classify.verdict_proof) ]
  in
  let labels =
    List.filter_map
      (fun (rr : Classify.read_report) ->
        let declared = rr.Classify.declared
        and inferred = rr.Classify.inferred in
        if not (Classify.label_geq ~declared ~inferred) then
          Some
            (Diag.make ~rule:"S006" ~severity:Diag.Warning
               ~loc:rr.Classify.racc.Summary.loc.Pir.base
               ~site:rr.Classify.racc.Summary.site
               (Printf.sprintf
                  "read declares %s but needs %s at some parameters (%s)"
                  (Pir.label_to_string declared)
                  (Pir.label_to_string inferred)
                  rr.Classify.rproof))
        else if strictly_stronger ~declared ~inferred then
          Some
            (Diag.make ~rule:"S005" ~severity:Diag.Info
               ~loc:rr.Classify.racc.Summary.loc.Pir.base
               ~site:rr.Classify.racc.Summary.site
               (Printf.sprintf
                  "read declares %s where %s suffices at every parameter \
                   (%s)"
                  (Pir.label_to_string declared)
                  (Pir.label_to_string inferred)
                  rr.Classify.rproof))
        else None)
      cl.Classify.reads
  in
  let gates =
    List.map
      (fun site ->
        Diag.make ~rule:"S007" ~severity:Diag.Info ~site
          (Printf.sprintf
             "await at %s treated as ordered after its lock-serialized \
              gating writes (terminal-value assumption)" site))
      sr.Srace.gate_sites
  in
  ignore prog;
  List.sort Diag.compare (races @ uncovered @ verdict @ labels @ gates)

let analyze (prog : Pir.t) =
  let summary = Summary.build prog in
  let actx = Summary.actx_create summary in
  let skel = Skeleton.build actx in
  let sr = Srace.analyze actx skel in
  let cl = Classify.classify sr in
  {
    program = prog.Pir.name;
    verdict = cl.Classify.verdict;
    verdict_proof = cl.Classify.verdict_proof;
    srace = sr;
    reads = cl.Classify.reads;
    lattice = Classify.infer_lattice sr cl;
    diags = diags_of prog sr cl;
  }

let has_errors r =
  List.exists (fun (d : Diag.t) -> d.Diag.severity = Diag.Error) r.diags

let count sev r =
  List.length (List.filter (fun (d : Diag.t) -> d.Diag.severity = sev) r.diags)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let pp ?(proof = false) ?(lattice = false) fmt r =
  Format.fprintf fmt "%s: %s@." r.program
    (Classify.verdict_to_string r.verdict);
  if proof then begin
    Format.fprintf fmt "  %s@." r.verdict_proof;
    List.iter
      (fun (rr : Classify.read_report) ->
        Format.fprintf fmt "  read %s: declared %s, inferred %s — %s@."
          rr.Classify.racc.Summary.site
          (Pir.label_to_string rr.Classify.declared)
          (Pir.label_to_string rr.Classify.inferred)
          rr.Classify.rproof)
      r.reads
  end;
  if lattice then begin
    let l = r.lattice in
    Format.fprintf fmt "  weakest model: %s@."
      (Classify.lmodel_to_string l.Classify.weakest);
    List.iter
      (fun (rm : Classify.read_model) ->
        Format.fprintf fmt "  read %s: %s — %s@."
          rm.Classify.rm_acc.Summary.site
          (Classify.lmodel_to_string rm.Classify.rm_model)
          rm.Classify.rm_proof)
      l.Classify.read_models;
    List.iter
      (fun (a : Classify.axiom_req) ->
        Format.fprintf fmt "  axiom %-4s %-12s %s — %s%s@." a.Classify.axiom
          a.Classify.level
          (if a.Classify.needed then "needed" else "not needed")
          a.Classify.reason
          (match a.Classify.sites with
          | [] -> ""
          | sites -> " [" ^ String.concat "; " sites ^ "]"))
      l.Classify.axioms
  end;
  List.iter (fun d -> Format.fprintf fmt "%a@." Diag.pp d) r.diags;
  Format.fprintf fmt "%s: %d error(s), %d warning(s), %d info@." r.program
    (count Diag.Error r) (count Diag.Warning r) (count Diag.Info r)

let to_json r =
  let reads =
    List.map
      (fun (rr : Classify.read_report) ->
        Printf.sprintf "{\"site\":%s,\"declared\":%s,\"inferred\":%s,\"proof\":%s}"
          (Json.quote rr.Classify.racc.Summary.site)
          (Json.quote (Pir.label_to_string rr.Classify.declared))
          (Json.quote (Pir.label_to_string rr.Classify.inferred))
          (Json.quote rr.Classify.rproof))
      r.reads
  in
  let verdict =
    match r.verdict with
    | Classify.Corollary2 -> "corollary2"
    | Classify.Corollary1 -> "corollary1"
    | Classify.Theorem1 -> "theorem1"
    | Classify.Unproved _ -> "unproved"
  in
  let lattice =
    let l = r.lattice in
    let rms =
      List.map
        (fun (rm : Classify.read_model) ->
          Printf.sprintf "{\"site\":%s,\"model\":%s,\"proof\":%s}"
            (Json.quote rm.Classify.rm_acc.Summary.site)
            (Json.quote (Classify.lmodel_to_string rm.Classify.rm_model))
            (Json.quote rm.Classify.rm_proof))
        l.Classify.read_models
    in
    let axioms =
      List.map
        (fun (a : Classify.axiom_req) ->
          Printf.sprintf
            "{\"axiom\":%s,\"level\":%s,\"needed\":%b,\"reason\":%s,\"sites\":[%s]}"
            (Json.quote a.Classify.axiom)
            (Json.quote a.Classify.level)
            a.Classify.needed
            (Json.quote a.Classify.reason)
            (String.concat "," (List.map Json.quote a.Classify.sites)))
        l.Classify.axioms
    in
    Printf.sprintf
      "{\"weakest\":%s,\"reads\":[%s],\"axioms\":[%s]}"
      (Json.quote (Classify.lmodel_to_string l.Classify.weakest))
      (String.concat "," rms)
      (String.concat "," axioms)
  in
  Printf.sprintf
    "{\"program\":%s,\"verdict\":\"%s\",\"proof\":%s,\"races\":%d,\"reads\":[%s],\"lattice\":%s,\"diagnostics\":[%s]}"
    (Json.quote r.program) verdict (Json.quote r.verdict_proof)
    (List.length r.srace.Srace.races)
    (String.concat "," reads)
    lattice
    (String.concat "," (List.map Diag.to_json r.diags))
