type t =
  | Constant of float
  | Uniform of Mc_util.Rng.t * float * float
  | Matrix of float array array
  | Jitter of t * Mc_util.Rng.t * float

let constant d =
  if d < 0. then invalid_arg "Latency.constant: negative latency";
  Constant d

let uniform rng ~lo ~hi =
  if lo < 0. || hi < lo then invalid_arg "Latency.uniform: bad range";
  Uniform (rng, lo, hi)

let matrix m = Matrix m
let jitter base rng ~spread = Jitter (base, rng, spread)

let rec sample t ~src ~dst =
  match t with
  | Constant d -> d
  | Uniform (rng, lo, hi) -> Mc_util.Rng.float_in rng lo hi
  | Matrix m -> m.(src).(dst)
  | Jitter (base, rng, spread) ->
    sample base ~src ~dst +. Mc_util.Rng.float rng spread

let rec mean = function
  | Constant d -> d
  | Uniform (_, lo, hi) -> (lo +. hi) /. 2.
  | Matrix m ->
    (* over the links between distinct nodes *)
    let n = Array.length m in
    if n < 2 then 0.
    else begin
      let sum = ref 0. in
      Array.iteri (fun i row -> Array.iteri (fun j d -> if i <> j then sum := !sum +. d) row) m;
      !sum /. float_of_int (n * (n - 1))
    end
  | Jitter (base, _, spread) -> mean base +. (spread /. 2.)
