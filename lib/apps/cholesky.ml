module Api = Mc_dsm.Api

type variant = Lock_based | Counter_based

let variant_to_string = function
  | Lock_based -> "lock-based (Fig. 5)"
  | Counter_based -> "counter objects (Sec. 5.3)"

type result = { l : int array array; max_error : int }

(* Location and lock names, each built on its first use and kept for
   the rest of the launch: a name costs a [sprintf] once, not once per
   operation. [entry.(j).(i - j)] is entry (i, j)'s, [i >= j]; "" is
   unbuilt. *)
type names = { entry : string array array; count : string array; lock : string array }

let names n = { entry = Array.make n [||]; count = Array.make n ""; lock = Array.make n "" }

(* [build] must be closed, so that passing it allocates nothing *)
let cached cache k build =
  match cache.(k) with
  | "" ->
    let s = build k in
    cache.(k) <- s;
    s
  | s -> s

let loc_l names i j =
  let col =
    match names.entry.(j) with
    | [||] ->
      let col = Array.make (Array.length names.entry - j) "" in
      names.entry.(j) <- col;
      col
    | col -> col
  in
  match col.(i - j) with
  | "" ->
    let s = Printf.sprintf "L:%d:%d" i j in
    col.(i - j) <- s;
    s
  | s -> s

let loc_count names j = cached names.count j (fun j -> "count:" ^ string_of_int j)
let lock_col names k = cached names.lock k (fun k -> "l:" ^ string_of_int k)

(* columns owned by process p: round-robin assignment *)
let owned_columns ~n ~procs p =
  let rec collect j acc = if j >= n then List.rev acc else collect (j + procs) (j :: acc) in
  collect p []

let init_columns names (m : Sparse_spd.t) ~variant p cols (api : Api.t) =
  let install loc v =
    match variant with
    | Lock_based -> api.write loc v
    | Counter_based -> api.init_counter loc v
  in
  List.iter
    (fun j ->
      List.iter (fun i -> install (loc_l names i j) m.Sparse_spd.values.(i).(j)) (Sparse_spd.column m j);
      install (loc_count names j) m.Sparse_spd.deps.(j))
    cols;
  ignore p

(* rows of column j strictly below the diagonal *)
let below m j = List.filter (fun i -> i > j) (Sparse_spd.column m j)

let process_column_locked names (m : Sparse_spd.t) j (api : Api.t) =
  api.await (loc_count names j) 0;
  let diag = Fixed.sqrt (api.read (loc_l names j j)) in
  api.write (loc_l names j j) diag;
  let rows = below m j in
  let scaled = List.map (fun i -> (i, Fixed.div (api.read (loc_l names i j)) diag)) rows in
  List.iter (fun (i, v) -> api.write (loc_l names i j) v) scaled;
  api.compute (float_of_int (List.length rows));
  List.iter
    (fun (k, vk) ->
      api.write_lock (lock_col names k);
      List.iter
        (fun (i, vi) ->
          if i >= k then begin
            let cur = api.read (loc_l names i k) in
            api.write (loc_l names i k) (cur - Fixed.mul vi vk)
          end)
        scaled;
      let c = api.read (loc_count names k) in
      api.write (loc_count names k) (c - 1);
      api.write_unlock (lock_col names k))
    scaled

let process_column_counters names (m : Sparse_spd.t) j (api : Api.t) =
  api.await (loc_count names j) 0;
  let diag = Fixed.sqrt (api.read (loc_l names j j)) in
  api.write (loc_l names j j) diag;
  let rows = below m j in
  let scaled = List.map (fun i -> (i, Fixed.div (api.read (loc_l names i j)) diag)) rows in
  List.iter (fun (i, v) -> api.write (loc_l names i j) v) scaled;
  api.compute (float_of_int (List.length rows));
  List.iter
    (fun (k, vk) ->
      List.iter
        (fun (i, vi) ->
          if i >= k then begin
            let amount = Fixed.mul vi vk in
            (* zero-amount decrements are no-ops; skipping them also keeps
               recorded write values unique *)
            if amount <> 0 then api.decrement (loc_l names i k) ~amount
          end)
        scaled;
      api.decrement (loc_count names k) ~amount:1)
    scaled

let gather names (m : Sparse_spd.t) (api : Api.t) =
  let n = m.Sparse_spd.n in
  let l = Array.make_matrix n n 0 in
  for j = 0 to n - 1 do
    List.iter (fun i -> l.(i).(j) <- api.read (loc_l names i j)) (Sparse_spd.column m j)
  done;
  l

let worker names (m : Sparse_spd.t) ~procs ~variant result p (api : Api.t) =
  let cols = owned_columns ~n:m.Sparse_spd.n ~procs p in
  init_columns names m ~variant p cols api;
  api.barrier ();
  let process =
    match variant with
    | Lock_based -> process_column_locked
    | Counter_based -> process_column_counters
  in
  List.iter (fun j -> process names m j api) cols;
  api.barrier ();
  if p = 0 then begin
    let l = gather names m api in
    result := Some { l; max_error = Sparse_spd.verify m l }
  end

let launch ~spawn ~procs ~variant (m : Sparse_spd.t) =
  if procs < 1 then invalid_arg "Cholesky.launch: need at least one process";
  let result = ref None and names = names m.Sparse_spd.n in
  for p = 0 to procs - 1 do
    spawn p (fun api -> worker names m ~procs ~variant result p api)
  done;
  result
