module Api = Mc_dsm.Api
module Op = Mc_history.Op

type params = { rows : int; cols : int; steps : int; seed : int }
type result = { checksum : int; energy : int }

let c = Fixed.of_float 0.5

(* initial impulse: deterministic small E values around the middle rows *)
let initial_e ~params i j =
  let rng = Mc_util.Rng.make (params.seed + (i * params.cols) + j) in
  let mid = params.rows / 2 in
  if abs (i - mid) <= 1 then Fixed.of_float (Mc_util.Rng.float_in rng (-1.0) 1.0)
  else 0

let strip ~rows ~procs p =
  let per = rows / procs and extra = rows mod procs in
  let lo = (p * per) + min p extra in
  let hi = lo + per + (if p < extra then 1 else 0) - 1 in
  (lo, hi)

let loc_e p j = Printf.sprintf "e:%d:%d" p j
let loc_h p j = Printf.sprintf "h:%d:%d" p j
let loc_chk p = "chk:" ^ string_of_int p
let loc_nrg p = "nrg:" ^ string_of_int p

let digest_cell ~cols acc i j e h =
  acc + (e * ((i * cols) + j + 1)) + (h * ((i * cols) + j + 7))

let worker ~params ~procs ~label result p (api : Api.t) =
  let { rows; cols; steps; _ } = params in
  let lo, hi = strip ~rows ~procs p in
  let local_rows = hi - lo + 1 in
  let e = Array.init local_rows (fun r -> Array.init cols (initial_e ~params (lo + r))) in
  let h = Array.make_matrix local_rows cols 0 in
  for _step = 1 to steps do
    (* E phase: E[i][j] += c * (H[i][j] - H[i-1][j]) *)
    let ghost_h =
      if p > 0 then Array.init cols (fun j -> api.read ~label (loc_h (p - 1) j))
      else Array.make cols 0
    in
    for r = local_rows - 1 downto 0 do
      let h_above = if r = 0 then ghost_h else h.(r - 1) in
      let h_above = if lo + r = 0 then Array.make cols 0 else h_above in
      for j = 0 to cols - 1 do
        e.(r).(j) <- e.(r).(j) + Fixed.mul c (h.(r).(j) - h_above.(j))
      done
    done;
    api.compute (float_of_int (local_rows * cols) *. 0.01);
    (* publish our first E row for the predecessor's H update *)
    if p > 0 then
      for j = 0 to cols - 1 do
        api.write (loc_e p j) e.(0).(j)
      done;
    api.barrier ();
    (* H phase: H[i][j] += c * (E[i+1][j] - E[i][j]) *)
    let ghost_e =
      if p < procs - 1 then
        Array.init cols (fun j -> api.read ~label (loc_e (p + 1) j))
      else Array.make cols 0
    in
    for r = 0 to local_rows - 1 do
      let e_below = if r = local_rows - 1 then ghost_e else e.(r + 1) in
      let e_below = if lo + r = rows - 1 then Array.make cols 0 else e_below in
      for j = 0 to cols - 1 do
        h.(r).(j) <- h.(r).(j) + Fixed.mul c (e_below.(j) - e.(r).(j))
      done
    done;
    api.compute (float_of_int (local_rows * cols) *. 0.01);
    (* publish our last H row for the successor's E update *)
    if p < procs - 1 then
      for j = 0 to cols - 1 do
        api.write (loc_h p j) h.(local_rows - 1).(j)
      done;
    api.barrier ()
  done;
  (* gather: per-strip digests, then process 0 combines after a barrier *)
  let chk = ref 0 and nrg = ref 0 in
  for r = 0 to local_rows - 1 do
    for j = 0 to cols - 1 do
      chk := digest_cell ~cols !chk (lo + r) j e.(r).(j) h.(r).(j);
      nrg := !nrg + abs e.(r).(j) + abs h.(r).(j)
    done
  done;
  api.write (loc_chk p) !chk;
  api.write (loc_nrg p) !nrg;
  api.barrier ();
  if p = 0 then begin
    let checksum = ref 0 and energy = ref 0 in
    for q = 0 to procs - 1 do
      checksum := !checksum + api.read ~label (loc_chk q);
      energy := !energy + api.read ~label (loc_nrg q)
    done;
    result := Some { checksum = !checksum; energy = !energy }
  end

let launch ~spawn ~procs ?(label = Op.PRAM) params =
  if params.rows < procs then invalid_arg "Em_field.launch: more processes than rows";
  let result = ref None in
  for p = 0 to procs - 1 do
    spawn p (fun api -> worker ~params ~procs ~label result p api)
  done;
  result

let reference ~procs params =
  ignore procs;
  let { rows; cols; steps; _ } = params in
  let e = Array.init rows (fun i -> Array.init cols (initial_e ~params i)) in
  let h = Array.make_matrix rows cols 0 in
  for _step = 1 to steps do
    for i = rows - 1 downto 0 do
      for j = 0 to cols - 1 do
        let h_above = if i = 0 then 0 else h.(i - 1).(j) in
        e.(i).(j) <- e.(i).(j) + Fixed.mul c (h.(i).(j) - h_above)
      done
    done;
    for i = 0 to rows - 1 do
      for j = 0 to cols - 1 do
        let e_below = if i = rows - 1 then 0 else e.(i + 1).(j) in
        h.(i).(j) <- h.(i).(j) + Fixed.mul c (e_below - e.(i).(j))
      done
    done
  done;
  let chk = ref 0 and nrg = ref 0 in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      chk := digest_cell ~cols !chk i j e.(i).(j) h.(i).(j);
      nrg := !nrg + abs e.(i).(j) + abs h.(i).(j)
    done
  done;
  { checksum = !chk; energy = !nrg }

(* strip p owns shard 3p for "e:p:j" (read by p-1), 3p+1 for "h:p:j"
   (read by p+1) and 3p+2 for its digests (read by process 0) *)
let placement ~procs =
  let module P = Mc_placement.Placement in
  let shard loc =
    match String.split_on_char ':' loc with
    | [ "e"; p; _ ] -> 3 * int_of_string p
    | [ "h"; p; _ ] -> (3 * int_of_string p) + 1
    | [ ("chk" | "nrg"); p ] -> (3 * int_of_string p) + 2
    | _ -> invalid_arg ("Em_field.placement: not a shared location: " ^ loc)
  in
  let pl = P.create ~shards:(3 * procs) ~policy:(P.Explicit shard) () in
  for p = 0 to procs - 1 do
    List.iteri
      (fun k reader ->
        P.subscribe pl ~node:p ~shard:((3 * p) + k);
        P.subscribe pl ~node:reader ~shard:((3 * p) + k))
      [ max 0 (p - 1); min (procs - 1) (p + 1); 0 ]
  done;
  pl
