type report = {
  races : Race.report;
  advice : Advisor.advice list;
  diags : Diag.t list;
  errors : int;
  warnings : int;
  infos : int;
}

let analyze h =
  let races = Race.detect h in
  let advice = Advisor.advise h in
  let diags =
    List.sort Diag.compare
      (Race.diagnostics h races @ Lint.lint h @ Advisor.diagnostics h advice)
  in
  let count s = List.length (List.filter (fun d -> d.Diag.severity = s) diags) in
  {
    races;
    advice;
    diags;
    errors = count Diag.Error;
    warnings = count Diag.Warning;
    infos = count Diag.Info;
  }

let has_errors r = r.errors > 0

let pp ppf r =
  List.iter (fun d -> Format.fprintf ppf "%a@." Diag.pp d) r.diags;
  Format.fprintf ppf "%d error(s), %d warning(s), %d info(s); %d race pair(s)@."
    r.errors r.warnings r.infos
    (List.length r.races.Race.races)

let to_json r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\"diagnostics\":[";
  List.iteri
    (fun i d ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Diag.to_json d))
    r.diags;
  Buffer.add_string buf
    (Printf.sprintf
       "],\"summary\":{\"errors\":%d,\"warnings\":%d,\"infos\":%d,\"races\":%d,\"hb_chains\":%d}}"
       r.errors r.warnings r.infos
       (List.length r.races.Race.races)
       r.races.Race.hb_chains);
  Buffer.contents buf
