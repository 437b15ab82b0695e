(* The one shape of a bench experiment: typed rows under columns, plus
   the named claims those rows must satisfy. A column carries its table
   header, its BENCH_CORE.json key and its printed precision; [Render]
   prints every table and writes every BENCH_CORE.json section from the
   same rows, so no experiment formats a result twice. *)

type cell =
  | Int of int
  | Float of float  (** simulated or exact: compact in tables, %.3f in JSON *)
  | Ratio of float  (** "1.28x" *)
  | Change of float  (** relative change of a host time: "+1.9%" *)
  | Speedup of float  (** ratio of two host times: "5.86x" *)
  | Seconds of float  (** host CPU time, from {!time} *)
  | Rate of float  (** a count per host second *)
  | Text of string
  | Flag of bool  (** "yes"/"NO" in tables *)
  | Ints of int list
  | Raw of string  (** JSON already encoded by a library serializer *)
  | Null of string  (** no value: the table prints the string, JSON null *)
  | Blank of string  (** no value: the table prints the string, JSON omits the key *)

type column = {
  id : int;  (** a row's cells are looked up by this *)
  header : string option;  (** table header; [None]: not printed *)
  key : string option;  (** BENCH_CORE.json key; [None]: not written *)
  digits : int option;  (** decimals in the table, where the kind has them *)
  json_digits : int option;  (** decimals in BENCH_CORE.json *)
}

let next_id = ref 0

let column header key digits json_digits =
  incr next_id;
  { id = !next_id; header; key; digits; json_digits }

let col ?key ?digits ?json_digits header = column (Some header) key digits json_digits

(* a BENCH_CORE.json-only column *)
let field ?json_digits key = column None (Some key) None json_digits

(* a column only claims read *)
let hidden () = column None None None None

(* A derived row (a "-> speedup" line) is printed but neither written to
   BENCH_CORE.json nor shown to claims. *)
type row = { cells : (column * cell) list; derived : bool }

let row cells = { cells; derived = false }
let derived cells = { cells; derived = true }

type table = {
  title : string option;  (** [None]: a BENCH_CORE.json-only table *)
  columns : column list;
  rows : row list;
}

let table ?title columns rows = { title; columns; rows }

let find (r : row) c = List.find_map (fun (c', v) -> if c'.id = c.id then Some v else None) r.cells

(* The fields of an experiment's BENCH_CORE.json section. *)
type json = Cell of cell | Fields of (string * cell) list | Rows of table

type output = {
  tables : table list;  (** printed in order *)
  note : string;  (** printed after the tables *)
  json : (string * json) list;  (** [[]]: the experiment writes no section *)
}

(* ------------------------------------------------------------------ *)
(* Claims                                                              *)
(* ------------------------------------------------------------------ *)

type claim = { what : string; section : string option; holds : row list -> bool }

let claim ?section what holds = { what; section; holds }

let cell r c =
  match find r c with
  | Some v -> v
  | None -> invalid_arg "Exp.cell: column not in row"

(* A claim reads only simulated or otherwise deterministic cells: a host
   time never decides one. *)
let num r c =
  match cell r c with
  | Int i -> float_of_int i
  | Float x | Ratio x -> x
  | Seconds _ | Rate _ | Change _ | Speedup _ -> invalid_arg "Exp.num: host time decides no claim"
  | _ -> invalid_arg "Exp.num: not a number"

let text r c = match cell r c with Text s -> s | _ -> invalid_arg "Exp.text: not text"
let flag r c = match cell r c with Flag b -> b | _ -> invalid_arg "Exp.flag: not a flag"

(* the rows with a cell in column [c] (of its table), in order *)
let having c rows = List.filter (fun r -> find r c <> None) rows

(* the rows whose text cell [c] is [v], in order *)
let where c v rows =
  List.filter (fun r -> find r c = Some (Text v)) rows

(* every row with a flag in column [c] has it set *)
let every c rows = List.for_all (fun r -> flag r c) (having c rows)

(* the rows with a number in column [c] all have the same one *)
let same c rows =
  match List.map (fun r -> num r c) (having c rows) with
  | [] -> false
  | x :: xs -> List.for_all (( = ) x) xs

(* [f] holds on every pair of the i-th rows of variants [a] and [b];
   false when there are none, or not as many of one as of the other *)
let pairwise c a b rows f =
  let a = where c a rows and b = where c b rows in
  a <> [] && List.length a = List.length b && List.for_all2 f a b

type t = { id : string; name : string; run : quick:bool -> output; claims : claim list }

(* one stderr line per claim the output's rows fail *)
let failed_claims e out =
  let rows =
    List.concat_map (fun t -> List.filter (fun r -> not r.derived) t.rows) out.tables
  in
  List.filter_map
    (fun c ->
      if c.holds rows then None
      else
        Some
          (Printf.sprintf "claim failed: %s%s: %s" e.name
             (match c.section with Some s -> " (" ^ s ^ ")" | None -> "")
             c.what))
    e.claims

(* ------------------------------------------------------------------ *)
(* Host timing                                                         *)
(* ------------------------------------------------------------------ *)

(* Host CPU time of [f (setup ())], best of [reps] runs; [setup] is not
   timed. Returns the last run's result with the least time. *)
let time_after ?(reps = 1) setup f =
  let now = Sys.time in
  let rec go k best last =
    if k = 0 then (Option.get last, best)
    else
      let x = setup () in
      let t0 = now () in
      let y = f x in
      go (k - 1) (Float.min best (now () -. t0)) (Some y)
  in
  go reps infinity None

let time ?reps f = time_after ?reps ignore f
