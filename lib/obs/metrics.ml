module Json = Mc_util.Json
module Summary = Mc_util.Stats.Summary

type labels = (string * string) list

module Counter = struct
  type t = { mutable v : int }

  let make () = { v = 0 }
  let incr t = t.v <- t.v + 1
  let add t k = t.v <- t.v + k
  let get t = t.v
end

module Gauge = struct
  type t = { mutable v : float; mutable hw : float }

  let make () = { v = 0.; hw = neg_infinity }

  let set t x =
    t.v <- x;
    if x > t.hw then t.hw <- x

  let add t d = set t (t.v +. d)
  let get t = t.v
  let high_water t = if t.hw = neg_infinity then 0. else t.hw
end

module Histogram = struct
  type t = {
    bounds : float array; (* strictly increasing upper bounds *)
    counts : int array; (* length bounds + 1; last bucket is +inf *)
    summary : Summary.t;
  }

  let default_buckets =
    [| 1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500.; 1_000.; 2_000.; 5_000.; 10_000. |]

  let make ?(buckets = default_buckets) () =
    Array.iteri
      (fun i b ->
        if Float.is_nan b then invalid_arg "Mc_obs.Metrics: NaN histogram bound";
        if i > 0 && buckets.(i - 1) >= b then
          invalid_arg "Mc_obs.Metrics: histogram buckets must be strictly increasing")
      buckets;
    {
      bounds = Array.copy buckets;
      counts = Array.make (Array.length buckets + 1) 0;
      summary = Summary.create ();
    }

  (* index of the first bound >= x ("le" semantics); the implicit +inf
     bucket catches everything above the last bound *)
  let bucket_index t x =
    let lo = ref 0 and hi = ref (Array.length t.bounds) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if x <= t.bounds.(mid) then hi := mid else lo := mid + 1
    done;
    !lo

  let observe t x =
    Summary.add t.summary x;
    let i = bucket_index t x in
    t.counts.(i) <- t.counts.(i) + 1

  let count t = Summary.count t.summary
  let sum t = Summary.total t.summary
  let mean t = Summary.mean t.summary
  let min t = Summary.min t.summary
  let max t = Summary.max t.summary
  let stddev t = Summary.stddev t.summary
  let summary t = t.summary

  let buckets t =
    let acc = ref 0 in
    let cumulative =
      Array.mapi
        (fun i c ->
          acc := !acc + c;
          ((if i < Array.length t.bounds then t.bounds.(i) else infinity), !acc))
        t.counts
    in
    Array.to_list cumulative
end

type sample =
  | Counter_sample of int
  | Gauge_sample of { value : float; high_water : float }
  | Histogram_sample of {
      count : int;
      sum : float;
      min : float;
      max : float;
      mean : float;
      stddev : float;
      buckets : (float * int) list;
    }

type point = { name : string; labels : labels; help : string; sample : sample }

module Registry = struct
  type value =
    | C of Counter.t
    | G of Gauge.t
    | F of (unit -> float) ref
    | H of Histogram.t

  type series = { s_help : string; mutable s_value : value }

  type t = { tbl : ((string * labels), series) Hashtbl.t }

  let create () = { tbl = Hashtbl.create 64 }

  let key name labels =
    if name = "" then invalid_arg "Mc_obs.Metrics: empty metric name";
    (name, List.sort compare labels)

  let register t ?(help = "") ?(labels = []) name make describe =
    let k = key name labels in
    match Hashtbl.find_opt t.tbl k with
    | Some s -> s.s_value
    | None ->
      let v = make () in
      ignore describe;
      Hashtbl.add t.tbl k { s_help = help; s_value = v };
      v

  let type_error name =
    invalid_arg
      (Printf.sprintf "Mc_obs.Metrics: series %S already registered with a different type"
         name)

  let counter t ?help ?labels name =
    match register t ?help ?labels name (fun () -> C (Counter.make ())) "counter" with
    | C c -> c
    | _ -> type_error name

  let gauge t ?help ?labels name =
    match register t ?help ?labels name (fun () -> G (Gauge.make ())) "gauge" with
    | G g -> g
    | _ -> type_error name

  let gauge_fn t ?help ?labels name f =
    match register t ?help ?labels name (fun () -> F (ref f)) "gauge_fn" with
    | F r -> r := f
    | _ -> type_error name

  let histogram t ?help ?labels ?buckets name =
    match
      register t ?help ?labels name (fun () -> H (Histogram.make ?buckets ())) "histogram"
    with
    | H h -> h
    | _ -> type_error name

  let series_count t = Hashtbl.length t.tbl

  let sorted t =
    Hashtbl.fold (fun (name, labels) s acc -> (name, labels, s) :: acc) t.tbl []
    |> List.sort (fun (n1, l1, _) (n2, l2, _) -> compare (n1, l1) (n2, l2))

  let counters t =
    List.filter_map
      (fun (n, l, s) -> match s.s_value with C c -> Some (n, l, c) | _ -> None)
      (sorted t)

  let histograms t =
    List.filter_map
      (fun (n, l, s) -> match s.s_value with H h -> Some (n, l, h) | _ -> None)
      (sorted t)

  let snapshot t =
    List.map
      (fun (name, labels, s) ->
        let sample =
          match s.s_value with
          | C c -> Counter_sample (Counter.get c)
          | G g -> Gauge_sample { value = Gauge.get g; high_water = Gauge.high_water g }
          | F f -> Gauge_sample { value = !f (); high_water = !f () }
          | H h ->
            Histogram_sample
              {
                count = Histogram.count h;
                sum = Histogram.sum h;
                min = Histogram.min h;
                max = Histogram.max h;
                mean = Histogram.mean h;
                stddev = Histogram.stddev h;
                buckets = Histogram.buckets h;
              }
        in
        { name; labels; help = s.s_help; sample })
      (sorted t)

  (* ---------------- exporters ---------------- *)

  let json_float x =
    if Float.is_finite x then Printf.sprintf "%.9g" x else "null"

  let labels_json labels =
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Json.quote k ^ ":" ^ Json.quote v) labels)
    ^ "}"

  let point_json p =
    let base =
      Printf.sprintf "\"name\":%s,\"labels\":%s" (Json.quote p.name) (labels_json p.labels)
    in
    match p.sample with
    | Counter_sample v -> Printf.sprintf "{%s,\"type\":\"counter\",\"value\":%d}" base v
    | Gauge_sample { value; high_water } ->
      Printf.sprintf "{%s,\"type\":\"gauge\",\"value\":%s,\"high_water\":%s}" base
        (json_float value) (json_float high_water)
    | Histogram_sample { count; sum; min; max; mean; stddev; buckets } ->
      let bucket_json (le, c) =
        if Float.is_finite le then Printf.sprintf "{\"le\":%s,\"count\":%d}" (json_float le) c
        else Printf.sprintf "{\"le\":\"+Inf\",\"count\":%d}" c
      in
      Printf.sprintf
        "{%s,\"type\":\"histogram\",\"count\":%d,\"sum\":%s,\"min\":%s,\"max\":%s,\"mean\":%s,\"stddev\":%s,\"buckets\":[%s]}"
        base count (json_float sum) (json_float min) (json_float max) (json_float mean)
        (json_float stddev)
        (String.concat "," (List.map bucket_json buckets))

  let to_json t =
    Printf.sprintf "{\"metrics\":[%s]}"
      (String.concat "," (List.map point_json (snapshot t)))

  let pp_labels fmt labels =
    if labels <> [] then begin
      Format.fprintf fmt "{";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Format.fprintf fmt ",";
          Format.fprintf fmt "%s=\"%s\"" k v)
        labels;
      Format.fprintf fmt "}"
    end

  let pp fmt t =
    List.iter
      (fun p ->
        if p.help <> "" then Format.fprintf fmt "# HELP %s %s@." p.name p.help;
        match p.sample with
        | Counter_sample v -> Format.fprintf fmt "%s%a %d@." p.name pp_labels p.labels v
        | Gauge_sample { value; high_water } ->
          Format.fprintf fmt "%s%a %g (high-water %g)@." p.name pp_labels p.labels value
            high_water
        | Histogram_sample { count; mean; min; max; stddev; buckets; _ } ->
          Format.fprintf fmt "%s%a n=%d mean=%.3f sd=%.3f min=%.3f max=%.3f@." p.name
            pp_labels p.labels count mean stddev min max;
          List.iter
            (fun (le, c) ->
              if Float.is_finite le then
                Format.fprintf fmt "%s_bucket%a{le=%g} %d@." p.name pp_labels p.labels le c
              else Format.fprintf fmt "%s_bucket%a{le=+Inf} %d@." p.name pp_labels p.labels c)
            buckets)
      (snapshot t)
end
