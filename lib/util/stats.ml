module Summary = struct
  (* all fields float, so the record is stored flat and [add] boxes
     nothing; [count] is exact below 2^53 *)
  type t = {
    mutable count : float;
    mutable mean : float;
    mutable m2 : float;
    mutable min : float;
    mutable max : float;
    mutable total : float;
  }

  let create () =
    { count = 0.; mean = 0.; m2 = 0.; min = infinity; max = neg_infinity; total = 0. }

  let add t x =
    t.count <- t.count +. 1.;
    t.total <- t.total +. x;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. t.count);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x

  let count t = int_of_float t.count
  let mean t = if t.count = 0. then 0. else t.mean

  let stddev t = if t.count < 2. then 0. else sqrt (t.m2 /. (t.count -. 1.))
  let min t = if t.count = 0. then 0. else t.min
  let max t = if t.count = 0. then 0. else t.max
  let total t = t.total

  let pp fmt t =
    Format.fprintf fmt "n=%d mean=%.3f sd=%.3f min=%.3f max=%.3f" (count t) (mean t)
      (stddev t) (min t) (max t)
end

module Counters = struct
  type t = (string, int ref) Hashtbl.t

  let create () : t = Hashtbl.create 16

  let cell t name =
    match Hashtbl.find_opt t name with
    | Some r -> r
    | None ->
      let r = ref 0 in
      Hashtbl.add t name r;
      r

  let counter = cell

  let add t name k =
    let r = cell t name in
    r := !r + k

  let incr t name = add t name 1
  let get t name = match Hashtbl.find_opt t name with Some r -> !r | None -> 0

  let to_list t =
    Hashtbl.fold (fun name r acc -> (name, !r) :: acc) t []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  let merge a b = List.iter (fun (name, k) -> add a name k) (to_list b)

  let pp fmt t =
    let pairs = to_list t in
    Format.fprintf fmt "@[<v>";
    List.iter (fun (name, k) -> Format.fprintf fmt "%s=%d@ " name k) pairs;
    Format.fprintf fmt "@]"
end
