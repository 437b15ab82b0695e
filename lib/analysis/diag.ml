module Json = Mc_util.Json

type severity = Error | Warning | Info

type t = {
  rule : string;
  severity : severity;
  op_id : int option;
  related_op : int option;
  proc : int option;
  loc : string option;
  site : string option;
  message : string;
}

let make ~rule ~severity ?op_id ?related_op ?proc ?loc ?site message =
  { rule; severity; op_id; related_op; proc; loc; site; message }

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2
let compare_severity a b = Stdlib.compare (severity_rank a) (severity_rank b)

let compare a b =
  let c = compare_severity a.severity b.severity in
  if c <> 0 then c
  else
    let c = Stdlib.compare a.rule b.rule in
    if c <> 0 then c
    else
      let anchor d = Option.value ~default:max_int d.op_id in
      let c = Stdlib.compare (anchor a) (anchor b) in
      if c <> 0 then c else Stdlib.compare a b

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let pp fmt d =
  Format.fprintf fmt "%s %s" (severity_to_string d.severity) d.rule;
  (match d.op_id, d.related_op with
  | Some a, Some b -> Format.fprintf fmt " op#%d<->op#%d" a b
  | Some a, None -> Format.fprintf fmt " op#%d" a
  | None, _ -> ());
  (match d.proc with Some p -> Format.fprintf fmt " p%d" p | None -> ());
  (match d.loc with Some l -> Format.fprintf fmt " [%s]" l | None -> ());
  (match d.site with Some s -> Format.fprintf fmt " @%s" s | None -> ());
  Format.fprintf fmt ": %s" d.message

let to_json d =
  let fields =
    [ Some ("\"rule\":" ^ Json.quote d.rule);
      Some
        (Printf.sprintf "\"severity\":\"%s\""
           (severity_to_string d.severity));
      Option.map (Printf.sprintf "\"op\":%d") d.op_id;
      Option.map (Printf.sprintf "\"related_op\":%d") d.related_op;
      Option.map (Printf.sprintf "\"proc\":%d") d.proc;
      Option.map (fun l -> "\"loc\":" ^ Json.quote l) d.loc;
      Option.map (fun s -> "\"site\":" ^ Json.quote s) d.site;
      Some ("\"message\":" ^ Json.quote d.message);
    ]
  in
  "{" ^ String.concat "," (List.filter_map Fun.id fields) ^ "}"

module Rules = struct
  let table =
    [ ("R001", Error, "data race: causally-unrelated non-commuting operation pair");
      ("R002", Warning, "shared location written by several processes with an empty candidate lockset");
      ("L001", Error, "unlock without a matching lock held by the process");
      ("L002", Warning, "lock acquired while already held by the same process");
      ("L003", Warning, "lock still held when the process's history ends");
      ("L004", Error, "barrier episode participant sets disagree across processes");
      ("L005", Warning, "await on a value no operation ever writes");
      ("L006", Error, "write performed under a read lock only");
      ("A001", Info, "read is over-labelled: a weaker label preserves the SC guarantee");
      ("A002", Warning, "read is under-labelled: its label does not validate the value read");
      ("A003", Error, "read returns a value invalid under every label");
      ("S001", Error, "static race: conflicting access pair not provably ordered at any parameters");
      ("S002", Warning, "shared base written by several roles with an empty must-lockset intersection");
      ("S003", Info, "static proof: the program is sequentially consistent by a paper theorem");
      ("S004", Warning, "static proof failed: no theorem of the paper applies");
      ("S005", Info, "read is statically over-labelled: a weaker label suffices at every parameter");
      ("S006", Warning, "read is statically under-labelled: the declared label is weaker than required");
      ("S007", Info, "gate assumption: an await was treated as ordered after its gating lock epochs");
    ]

  let description code =
    List.find_map
      (fun (c, _, d) -> if c = code then Some d else None)
      table
end
