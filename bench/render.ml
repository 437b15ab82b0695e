(* The one renderer: every experiment table goes to stdout through
   [Mc_util.Tablefmt], and every BENCH_CORE.json section is written from
   the same rows. *)

open Exp

let fixed d x = Printf.sprintf "%.*f" d x

let table_cell c = function
  | Int i -> string_of_int i
  | Float x -> (
    match c.digits with Some d -> fixed d x | None -> Mc_util.Tablefmt.fmt_float x)
  | Ratio x | Speedup x -> Mc_util.Tablefmt.fmt_ratio x
  | Change x -> Printf.sprintf "%+.1f%%" (100.0 *. x)
  | Seconds x -> fixed (Option.value c.digits ~default:4) x
  | Rate x -> Printf.sprintf "%.3e" x
  | Text s | Raw s | Null s | Blank s -> s
  | Flag b -> if b then "yes" else "NO"
  | Ints l -> String.concat ", " (List.map string_of_int l)

(* [None]: the key is left out *)
let json_cell ?digits = function
  | Int i -> Some (string_of_int i)
  | Float x -> Some (fixed (Option.value digits ~default:3) x)
  | Ratio x | Speedup x -> Some (fixed (Option.value digits ~default:2) x)
  | Change x -> Some (fixed 4 x)
  | Seconds x -> Some (fixed 6 x)
  | Rate x -> Some (fixed 1 x)
  | Text s -> Some (Mc_util.Json.quote s)
  | Flag b -> Some (string_of_bool b)
  | Ints l -> Some ("[" ^ String.concat ", " (List.map string_of_int l) ^ "]")
  | Raw s -> Some s
  | Null _ -> Some "null"
  | Blank _ -> None

(* the printed columns' headers, and each row's cells under them *)
let shown t =
  let shown = List.filter (fun c -> c.header <> None) t.columns in
  ( List.map (fun c -> Option.get c.header) shown,
    List.map
      (fun r ->
        List.map (fun c -> match find r c with Some v -> table_cell c v | None -> "") shown)
      t.rows )

let print_table t =
  Option.iter
    (fun title ->
      let headers, rows = shown t in
      Mc_util.Tablefmt.print ~title ~headers rows)
    t.title

(* [t] as the markdown table EXPERIMENTS.md quotes *)
let markdown t =
  let headers, rows = shown t in
  let line cells = "| " ^ String.concat " | " cells ^ " |" in
  (line headers :: ("|" ^ String.concat "|" (List.map (fun _ -> "---") headers) ^ "|")
   :: List.map line rows)

let print out =
  List.iter print_table out.tables;
  print_endline out.note

let obj fields =
  "{"
  ^ String.concat ", "
      (List.filter_map
         (fun (k, v) ->
           Option.map (fun s -> Mc_util.Json.quote k ^ ": " ^ s) v)
         fields)
  ^ "}"

let json_rows t =
  List.filter_map
    (fun r ->
      if r.derived then None
      else
        Some
          ("      "
          ^ obj
              (List.filter_map
                 (fun c ->
                   match (c.key, find r c) with
                   | Some k, Some v -> Some (k, json_cell ?digits:c.json_digits v)
                   | _ -> None)
                 t.columns)))
    t.rows

let section fields =
  "{\n"
  ^ String.concat ",\n"
      (List.map
         (fun (k, v) ->
           "    " ^ Mc_util.Json.quote k ^ ": "
           ^
           match v with
           | Cell c -> Option.value (json_cell c) ~default:"null"
           | Fields fs -> obj (List.map (fun (k, c) -> (k, json_cell c)) fs)
           | Rows t -> "[\n" ^ String.concat ",\n" (json_rows t) ^ "\n    ]")
         fields)
  ^ "\n  }"

(* the whole BENCH_CORE.json document: run metadata, then one section
   per experiment that writes one, in run order *)
let bench_core ~seed ~quick ~argv sections =
  Printf.sprintf
    "{\n  \"schema_version\": 2,\n  \"seed\": %d,\n  \"quick\": %b,\n  \"argv\": [%s],\n%s\n}\n"
    seed quick
    (String.concat ", " (List.map Mc_util.Json.quote argv))
    (String.concat ",\n"
       (List.map
          (fun (name, fields) -> "  " ^ Mc_util.Json.quote name ^ ": " ^ section fields)
          sections))
