(* Postmortem analyzer over trace events and metric points. The same
   aggregation runs over a live tracer's buffer and over a re-parsed
   trace file, so live-mode and file-mode reports agree by
   construction. All iteration orders are sorted and all floats are
   rendered with fixed precision, so the JSON form is byte-deterministic
   for a deterministic run. *)

module Json = Mc_util.Json

(* ---------------- trace / metrics ingestion ---------------- *)

let mem key = function Json.Obj kvs -> List.assoc_opt key kvs | _ -> None
let to_str = function Some (Json.Str s) -> Some s | _ -> None

(* the metrics exporter writes [null] for a non-finite float *)
let to_num = function
  | Some (Json.Num f) -> Some f
  | Some Json.Null -> Some Float.nan
  | _ -> None

let to_int v = Option.map int_of_float (to_num v)

let args_of_json v =
  match v with
  | Some (Json.Obj kvs) ->
    List.filter_map
      (fun (k, v) -> match v with Json.Str s -> Some (k, s) | _ -> None)
      kvs
  | _ -> []

(* One Chrome trace_event object back into a {!Trace.event}. Flow
   events were exported as a ph:"s"/"f" pair sharing an id; the "s" half
   is parked in [pending] until its "f" half arrives (the exporters
   write them adjacently). Metadata records and unmatched halves yield
   [None]. *)
let event_of_chrome pending obj =
  let str k = to_str (mem k obj) in
  let num k = to_num (mem k obj) in
  let int_of k = match to_int (mem k obj) with Some i -> i | None -> 0 in
  let name = match str "name" with Some s -> s | None -> "" in
  let cat = match str "cat" with Some s -> s | None -> "" in
  let ts = match num "ts" with Some f -> f | None -> 0. in
  let tid = int_of "tid" in
  let args = args_of_json (mem "args" obj) in
  match str "ph" with
  | Some "X" ->
    let dur = match num "dur" with Some f -> f | None -> 0. in
    Some (Trace.Complete { name; cat; tid; ts; dur; args })
  | Some "i" -> Some (Trace.Instant { name; cat; tid; ts; args })
  | Some "C" ->
    let value =
      match to_num (Option.bind (mem "args" obj) (mem "value")) with
      | Some f -> f
      | None -> 0.
    in
    Some (Trace.Counter { name; tid; ts; value })
  | Some "s" ->
    Hashtbl.replace pending (int_of "id") (name, cat, tid, ts, args);
    None
  | Some "f" -> (
    let id = int_of "id" in
    match Hashtbl.find_opt pending id with
    | Some (name, cat, src, ts_send, args) ->
      Hashtbl.remove pending id;
      Some
        (Trace.Flow { id; name; cat; src; dst = tid; ts_send; ts_recv = ts; args })
    | None -> None)
  | _ -> None (* "M" metadata and unknown phases *)

(* [parse_trace s] accepts either the JSONL form (one Chrome object per
   line) or the whole-buffer chrome form ({"traceEvents":[...]}).
   Raises {!Json.Parse_error} on malformed input. *)
let parse_trace s =
  let pending = Hashtbl.create 16 in
  (* a JSONL file also starts with '{', so the whole-buffer parse is a
     trial: on failure the input is line-delimited *)
  let whole =
    let trimmed = String.trim s in
    if trimmed = "" || trimmed.[0] <> '{' then None
    else match Json.parse trimmed with
      | o -> Some o
      | exception Json.Parse_error _ -> None
  in
  match whole with
  | Some o -> (
    match mem "traceEvents" o with
    | Some (Json.List l) -> List.filter_map (event_of_chrome pending) l
    | Some _ -> []
    | None -> List.filter_map (event_of_chrome pending) [ o ])
  | None ->
    String.split_on_char '\n' s
    |> List.filter_map (fun line ->
           let line = String.trim line in
           if line = "" then None else event_of_chrome pending (Json.parse line))

(* [parse_metrics s] re-reads {!Metrics.Registry.to_json} output. [help]
   is not round-tripped (the exporter omits it). *)
let parse_metrics s =
  let point_of obj =
    let name = match to_str (mem "name" obj) with Some s -> s | None -> "" in
    let labels =
      match mem "labels" obj with
      | Some (Json.Obj kvs) ->
        List.filter_map
          (fun (k, v) -> match v with Json.Str s -> Some (k, s) | _ -> None)
          kvs
      | _ -> []
    in
    let num k = match to_num (mem k obj) with Some f -> f | None -> 0. in
    let sample =
      match to_str (mem "type" obj) with
      | Some "counter" ->
        Some (Metrics.Counter_sample (int_of_float (num "value")))
      | Some "gauge" ->
        Some
          (Metrics.Gauge_sample
             { value = num "value"; high_water = num "high_water" })
      | Some "histogram" ->
        let buckets =
          match mem "buckets" obj with
          | Some (Json.List bs) ->
            List.map
              (fun b ->
                let le =
                  match mem "le" b with
                  | Some (Json.Num f) -> f
                  | Some (Json.Str "+Inf") -> infinity
                  | _ -> infinity
                in
                let count =
                  match to_int (mem "count" b) with
                  | Some c -> c
                  | None -> 0
                in
                (le, count))
              bs
          | _ -> []
        in
        Some
          (Metrics.Histogram_sample
             {
               count = int_of_float (num "count");
               sum = num "sum";
               min = num "min";
               max = num "max";
               mean = num "mean";
               stddev = num "stddev";
               buckets;
             })
      | _ -> None
    in
    Option.map
      (fun sample -> { Metrics.name; labels; help = ""; sample })
      sample
  in
  match Json.parse s with
  | Json.Obj _ as o -> (
    match mem "metrics" o with
    | Some (Json.List points) -> List.filter_map point_of points
    | _ -> [])
  | _ -> []

(* ---------------- data model ---------------- *)

type stat = { n : int; mean : float; p50 : float; p95 : float; max : float }

(* nearest-rank percentiles over the sorted sample list *)
let stat_of_samples samples =
  match samples with
  | [] -> None
  | _ ->
    let arr = Array.of_list samples in
    Array.sort compare arr;
    let n = Array.length arr in
    let rank q =
      let i = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
      arr.(Stdlib.min (n - 1) (Stdlib.max 0 i))
    in
    let sum = Array.fold_left ( +. ) 0. arr in
    Some
      {
        n;
        mean = sum /. float_of_int n;
        p50 = rank 0.50;
        p95 = rank 0.95;
        max = arr.(n - 1);
      }

type msum = { m_count : int; m_mean : float; m_max : float }

type shard_row = {
  sr_shard : int;
  sr_updates : int; (* shard_send instants *)
  sr_hops : int; (* tree-edge flow arcs *)
  sr_applies : int; (* subscriber-side applies *)
  sr_in_flight : int; (* updates never fully applied *)
  sr_vis : stat option; (* per-subscriber visibility latency *)
  sr_vis_full : stat option; (* until applied at every subscriber *)
  sr_fetches : int;
  sr_fetch : stat option; (* demand-fetch round trip *)
  sr_gap_high_water : float option;
  sr_gap_stalls : int option;
  sr_staleness : msum option;
}

type hot_key = { hk_loc : string; hk_reads : int; hk_writes : int }

type hop = { h_src : int; h_dst : int; h_sent : float; h_recv : float }

type provenance = { p_writer : int; p_shard : int; p_sseq : int }

type flight = {
  f_hops : hop list;
  f_applies : (int * float) list;
  f_complete : bool;
}

(* the initial value, or an update no remote subscriber awaited *)
let no_flight = { f_hops = []; f_applies = []; f_complete = true }

type overwrite = { o_write_id : int; o_value : int; o_source : provenance option }

type violation = {
  v_read_id : int;
  v_proc : int;
  v_loc : string;
  v_label : string;
  v_verdict : string;
  v_value : int;
  v_fetched : bool;
  v_source : provenance option;
  v_overwritten_by : overwrite option;
}

type input = {
  events : Trace.event list;
  metrics : Metrics.point list;
  violations : violation list option; (* None: audit unavailable (file mode) *)
  meta : (string * string) list;
}

type report = {
  r_meta : (string * string) list;
  r_events : int;
  r_op_spans : int;
  r_flows : int;
  r_instants : int;
  r_shards : shard_row list;
  r_slowest : (int * float) list; (* (shard, visibility p95) *)
  r_hot_keys : hot_key list;
  r_staleness : msum option; (* global mc_read_staleness_updates *)
  r_placement : (int * int) option; (* churn, tree builds *)
  r_violations : violation list option;
  r_flights : (provenance * flight) list;
}

(* ---------------- analysis ---------------- *)

let arg args k = List.assoc_opt k args
let arg_int args k = Option.bind (arg args k) int_of_string_opt

let find_point metrics name labels =
  List.find_opt
    (fun (p : Metrics.point) ->
      p.name = name && List.sort compare p.labels = List.sort compare labels)
    metrics

let shard_labels shard = [ ("shard", string_of_int shard) ]

let hist_msum metrics name labels =
  match find_point metrics name labels with
  | Some { sample = Metrics.Histogram_sample { count; mean; max; _ }; _ }
    when count > 0 ->
    Some { m_count = count; m_mean = mean; m_max = max }
  | _ -> None

let counter_value metrics name labels =
  match find_point metrics name labels with
  | Some { sample = Metrics.Counter_sample v; _ } -> Some v
  | _ -> None

let gauge_high_water metrics name labels =
  match find_point metrics name labels with
  | Some { sample = Metrics.Gauge_sample { high_water; _ }; _ } ->
    Some high_water
  | _ -> None

let analyze ?(top_k = 5) (input : input) : report =
  let module H = Hashtbl in
  (* (writer, shard, sseq) -> routing time, expected applies *)
  let sends : (int * int * int, float * int) H.t = H.create 256 in
  (* (writer, shard, sseq) -> (node, applied at) and tree hops, newest
     first *)
  let applies : (int * int * int, (int * float) list ref) H.t = H.create 256 in
  let hops : (int * int * int, hop list ref) H.t = H.create 256 in
  let hops_per_shard : (int, int) H.t = H.create 16 in
  let fetch_samples : (int, float list ref) H.t = H.create 16 in
  let fetch_counts : (int, int) H.t = H.create 16 in
  let key_reads : (string, int) H.t = H.create 64 in
  let key_writes : (string, int) H.t = H.create 64 in
  let bump tbl k by = H.replace tbl k (by + Option.value ~default:0 (H.find_opt tbl k)) in
  let push tbl k v =
    match H.find_opt tbl k with
    | Some l -> l := v :: !l
    | None -> H.add tbl k (ref [ v ])
  in
  let op_spans = ref 0 and flows = ref 0 and instants = ref 0 in
  let skey args =
    match (arg_int args "writer", arg_int args "shard", arg_int args "sseq") with
    | Some w, Some s, Some q -> Some (w, s, q)
    | _ -> None
  in
  (* pass 1: index the shard_send instants so apply latencies can be
     joined in pass 2 regardless of interleaving *)
  List.iter
    (fun ev ->
      match ev with
      | Trace.Instant { cat = "shard"; name = "shard_send"; ts; args; _ } -> (
        match skey args with
        | Some key ->
          H.replace sends key (ts, Option.value ~default:0 (arg_int args "expect"))
        | None -> ())
      | _ -> ())
    input.events;
  List.iter
    (fun ev ->
      match ev with
      | Trace.Complete { cat = "op"; args; name; _ } -> (
        incr op_spans;
        match arg args "loc" with
        | Some loc -> (
          match name with
          | "read" | "fetched_read" | "await" -> bump key_reads loc 1
          | "write" | "init_counter" | "decrement" -> bump key_writes loc 1
          | _ -> ())
        | None -> ())
      | Trace.Complete { cat = "fetch"; name = "fetch_rtt"; dur; args; _ } -> (
        match arg_int args "shard" with
        | Some shard ->
          bump fetch_counts shard 1;
          push fetch_samples shard dur
        | None -> ())
      | Trace.Complete _ -> ()
      | Trace.Instant { cat = "shard"; name = "shard_apply"; tid; ts; args; _ } -> (
        incr instants;
        match skey args with
        | Some key when H.mem sends key -> push applies key (tid, ts)
        | _ -> () (* send evicted from the ring *))
      | Trace.Instant _ -> incr instants
      | Trace.Flow { cat = "shard"; src; dst; ts_send; ts_recv; args; _ } -> (
        incr flows;
        (match arg_int args "shard" with
        | Some shard -> bump hops_per_shard shard 1
        | None -> ());
        match skey args with
        | Some key ->
          push hops key { h_src = src; h_dst = dst; h_sent = ts_send; h_recv = ts_recv }
        | None -> ())
      | Trace.Flow _ -> incr flows
      | Trace.Counter _ -> ())
    input.events;
  (* fold per-update joins into per-shard aggregates *)
  let upd_per_shard : (int, int) H.t = H.create 16 in
  let applies_per_shard : (int, int) H.t = H.create 16 in
  let inflight_per_shard : (int, int) H.t = H.create 16 in
  let vis_per_shard : (int, float list ref) H.t = H.create 16 in
  let vis_full_per_shard : (int, float list ref) H.t = H.create 16 in
  let listed tbl key = match H.find_opt tbl key with Some l -> !l | None -> [] in
  H.iter
    (fun ((_, shard, _) as key) (t0, expect) ->
      bump upd_per_shard shard 1;
      let lats = List.map (fun (_, ts) -> ts -. t0) (listed applies key) in
      List.iter (fun dt -> push vis_per_shard shard dt) lats;
      bump applies_per_shard shard (List.length lats);
      if expect > 0 && List.length lats >= expect then
        push vis_full_per_shard shard (List.fold_left Float.max 0. lats)
      else if expect > 0 then bump inflight_per_shard shard 1)
    sends;
  let shard_ids =
    let ids = H.create 16 in
    H.iter (fun s _ -> H.replace ids s ()) upd_per_shard;
    H.iter (fun s _ -> H.replace ids s ()) fetch_counts;
    H.iter (fun s _ -> H.replace ids s ()) hops_per_shard;
    List.iter
      (fun (p : Metrics.point) ->
        if
          p.name = "mc_shard_gap_depth"
          || p.name = "mc_shard_gap_buffered_total"
          || p.name = "mc_shard_staleness_updates"
        then
          match arg_int p.labels "shard" with
          | Some s -> H.replace ids s ()
          | None -> ())
      input.metrics;
    H.fold (fun s () acc -> s :: acc) ids [] |> List.sort compare
  in
  let get tbl s = Option.value ~default:0 (H.find_opt tbl s) in
  let samples tbl s =
    match H.find_opt tbl s with Some l -> !l | None -> []
  in
  let shards =
    List.map
      (fun s ->
        {
          sr_shard = s;
          sr_updates = get upd_per_shard s;
          sr_hops = get hops_per_shard s;
          sr_applies = get applies_per_shard s;
          sr_in_flight = get inflight_per_shard s;
          sr_vis = stat_of_samples (samples vis_per_shard s);
          sr_vis_full = stat_of_samples (samples vis_full_per_shard s);
          sr_fetches = get fetch_counts s;
          sr_fetch = stat_of_samples (samples fetch_samples s);
          sr_gap_high_water =
            gauge_high_water input.metrics "mc_shard_gap_depth" (shard_labels s);
          sr_gap_stalls =
            counter_value input.metrics "mc_shard_gap_buffered_total"
              (shard_labels s);
          sr_staleness =
            hist_msum input.metrics "mc_shard_staleness_updates" (shard_labels s);
        })
      shard_ids
  in
  let slowest =
    List.filter_map
      (fun r -> Option.map (fun st -> (r.sr_shard, st.p95)) r.sr_vis)
      shards
    |> List.sort (fun (s1, p1) (s2, p2) -> compare (-.p1, s1) (-.p2, s2))
    |> List.filteri (fun i _ -> i < top_k)
  in
  let hot_keys =
    let locs = H.create 64 in
    H.iter (fun l _ -> H.replace locs l ()) key_reads;
    H.iter (fun l _ -> H.replace locs l ()) key_writes;
    H.fold
      (fun l () acc ->
        { hk_loc = l; hk_reads = get key_reads l; hk_writes = get key_writes l }
        :: acc)
      locs []
    |> List.sort (fun a b ->
           compare
             (-(a.hk_reads + a.hk_writes), a.hk_loc)
             (-(b.hk_reads + b.hk_writes), b.hk_loc))
    |> List.filteri (fun i _ -> i < top_k)
  in
  {
    r_meta = input.meta;
    r_events = List.length input.events;
    r_op_spans = !op_spans;
    r_flows = !flows;
    r_instants = !instants;
    r_shards = shards;
    r_slowest = slowest;
    r_hot_keys = hot_keys;
    r_staleness = hist_msum input.metrics "mc_read_staleness_updates" [];
    r_placement =
      (match
         ( counter_value input.metrics "mc_placement_churn_total" [],
           counter_value input.metrics "mc_placement_tree_builds_total" [] )
       with
      | Some c, Some t -> Some (c, t)
      | _ -> None);
    r_violations = input.violations;
    r_flights =
      (let flight p =
         (* an update with no remote subscriber has no flight *)
         let key = (p.p_writer, p.p_shard, p.p_sseq) in
         match H.find_opt sends key with
         | Some (_, expect) when expect > 0 ->
           let applied = listed applies key in
           {
             f_hops = List.sort (fun a b -> compare a.h_sent b.h_sent) (listed hops key);
             f_applies = List.sort (fun (_, a) (_, b) -> compare a b) applied;
             f_complete = List.length applied >= expect;
           }
         | _ -> no_flight
       in
       List.concat_map
         (fun v ->
           Option.to_list v.v_source
           @ Option.to_list (Option.bind v.v_overwritten_by (fun o -> o.o_source)))
         (Option.value ~default:[] input.violations)
       |> List.sort_uniq compare
       |> List.map (fun p -> (p, flight p)));
  }

(* ---------------- rendering ---------------- *)

(* fixed decimal rendering: stable under JSON round trips (the trace
   exporter prints 9 significant digits, so re-parsed values differ by
   far less than 0.05 µs) *)
let us x = Printf.sprintf "%.1f" x

let stat_json = function
  | None -> "null"
  | Some { n; mean; p50; p95; max } ->
    Printf.sprintf "{\"n\":%d,\"mean\":%s,\"p50\":%s,\"p95\":%s,\"max\":%s}" n
      (us mean) (us p50) (us p95) (us max)

let msum_json = function
  | None -> "null"
  | Some { m_count; m_mean; m_max } ->
    Printf.sprintf "{\"n\":%d,\"mean\":%s,\"max\":%s}" m_count (us m_mean)
      (us m_max)

let provenance_json = function
  | None -> "null"
  | Some { p_writer; p_shard; p_sseq } ->
    Printf.sprintf "{\"writer\":%d,\"shard\":%d,\"sseq\":%d}" p_writer p_shard
      p_sseq

let hops_json hops =
  "["
  ^ String.concat ","
      (List.map
         (fun { h_src; h_dst; h_sent; h_recv } ->
           Printf.sprintf
             "{\"src\":%d,\"dst\":%d,\"sent_us\":%s,\"recv_us\":%s}" h_src h_dst
             (us h_sent) (us h_recv))
         hops)
  ^ "]"

let applies_json applies =
  "["
  ^ String.concat ","
      (List.map
         (fun (node, at) ->
           Printf.sprintf "{\"node\":%d,\"at_us\":%s}" node (us at))
         applies)
  ^ "]"

let flight_of r = function
  | Some p -> Option.value ~default:no_flight (List.assoc_opt p r.r_flights)
  | None -> no_flight

let violation_json r v =
  let overwritten =
    match v.v_overwritten_by with
    | None -> "null"
    | Some o ->
      let f = flight_of r o.o_source in
      Printf.sprintf
        "{\"write_id\":%d,\"value\":%d,\"source\":%s,\"path\":%s,\"applies\":%s,\"complete\":%b}"
        o.o_write_id o.o_value
        (provenance_json o.o_source)
        (hops_json f.f_hops) (applies_json f.f_applies) f.f_complete
  in
  Printf.sprintf
    "{\"read_id\":%d,\"proc\":%d,\"loc\":%s,\"label\":%s,\"verdict\":%s,\"value\":%d,\"fetched\":%b,\"source\":%s,\"path\":%s,\"overwritten_by\":%s}"
    v.v_read_id v.v_proc (Json.quote v.v_loc) (Json.quote v.v_label) (Json.quote v.v_verdict)
    v.v_value v.v_fetched
    (provenance_json v.v_source)
    (hops_json (flight_of r v.v_source).f_hops)
    overwritten

let shard_json r =
  Printf.sprintf
    "{\"shard\":%d,\"updates\":%d,\"hops\":%d,\"applies\":%d,\"in_flight\":%d,\"visibility_us\":%s,\"full_visibility_us\":%s,\"fetches\":%d,\"fetch_us\":%s,\"gap_high_water\":%s,\"gap_stalls\":%s,\"staleness\":%s}"
    r.sr_shard r.sr_updates r.sr_hops r.sr_applies r.sr_in_flight
    (stat_json r.sr_vis) (stat_json r.sr_vis_full) r.sr_fetches
    (stat_json r.sr_fetch)
    (match r.sr_gap_high_water with None -> "null" | Some h -> us h)
    (match r.sr_gap_stalls with None -> "null" | Some c -> string_of_int c)
    (msum_json r.sr_staleness)

let to_json (r : report) =
  let meta =
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, v) -> Json.quote k ^ ":" ^ Json.quote v)
           r.r_meta)
    ^ "}"
  in
  let violations =
    match r.r_violations with
    | None -> "{\"available\":false,\"count\":0,\"items\":[]}"
    | Some vs ->
      Printf.sprintf "{\"available\":true,\"count\":%d,\"items\":[%s]}"
        (List.length vs)
        (String.concat "," (List.map (violation_json r) vs))
  in
  Printf.sprintf
    "{\"meta\":%s,\"totals\":{\"events\":%d,\"op_spans\":%d,\"flows\":%d,\"instants\":%d},\"shards\":[%s],\"slowest_shards\":[%s],\"hot_keys\":[%s],\"read_staleness\":%s,\"placement\":%s,\"violations\":%s}"
    meta r.r_events r.r_op_spans r.r_flows r.r_instants
    (String.concat "," (List.map shard_json r.r_shards))
    (String.concat ","
       (List.map
          (fun (s, p95) ->
            Printf.sprintf "{\"shard\":%d,\"visibility_p95_us\":%s}" s (us p95))
          r.r_slowest))
    (String.concat ","
       (List.map
          (fun hk ->
            Printf.sprintf "{\"loc\":%s,\"reads\":%d,\"writes\":%d}"
              (Json.quote hk.hk_loc) hk.hk_reads hk.hk_writes)
          r.r_hot_keys))
    (msum_json r.r_staleness)
    (match r.r_placement with
    | None -> "null"
    | Some (churn, trees) ->
      Printf.sprintf "{\"churn\":%d,\"tree_builds\":%d}" churn trees)
    violations

let to_text (r : report) =
  let b = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "postmortem report";
  List.iter (fun (k, v) -> line "  %-12s %s" k v) r.r_meta;
  line "";
  line "totals: %d events (%d op spans, %d flows, %d instants)" r.r_events
    r.r_op_spans r.r_flows r.r_instants;
  (match r.r_placement with
  | Some (churn, trees) ->
    line "placement: %d subscription changes, %d tree builds" churn trees
  | None -> ());
  (match r.r_staleness with
  | Some m ->
    line "read staleness (pending updates at read): n=%d mean=%s max=%s"
      m.m_count (us m.m_mean) (us m.m_max)
  | None -> ());
  if r.r_shards <> [] then begin
    line "";
    line "per-shard flight summary:";
    line "  %5s %8s %6s %8s %9s %22s %22s %8s %16s %6s %6s" "shard" "updates"
      "hops" "applies" "in-flight" "visibility p50/p95" "full-vis p50/p95"
      "fetches" "fetch p50/p95" "gap-hw" "stalls";
    List.iter
      (fun row ->
        let pair = function
          | Some st -> Printf.sprintf "%s/%s" (us st.p50) (us st.p95)
          | None -> "-"
        in
        line "  %5d %8d %6d %8d %9d %22s %22s %8d %16s %6s %6s" row.sr_shard
          row.sr_updates row.sr_hops row.sr_applies row.sr_in_flight
          (pair row.sr_vis) (pair row.sr_vis_full) row.sr_fetches
          (pair row.sr_fetch)
          (match row.sr_gap_high_water with Some h -> us h | None -> "-")
          (match row.sr_gap_stalls with
          | Some c -> string_of_int c
          | None -> "-"))
      r.r_shards
  end;
  if r.r_slowest <> [] then begin
    line "";
    line "slowest shards (by visibility p95, us):";
    List.iter
      (fun (s, p95) -> line "  shard %d: %s" s (us p95))
      r.r_slowest
  end;
  if r.r_hot_keys <> [] then begin
    line "";
    line "hottest keys:";
    List.iter
      (fun hk ->
        line "  %-12s %d reads, %d writes" hk.hk_loc hk.hk_reads hk.hk_writes)
      r.r_hot_keys
  end;
  line "";
  (match r.r_violations with
  | None -> line "violation audit: unavailable (trace-file mode; run live)"
  | Some [] -> line "violation audit: clean (0 verdicts)"
  | Some vs ->
    line "violation audit: %d verdict(s)" (List.length vs);
    List.iter
      (fun v ->
        line "  read #%d by proc %d: %s read of %s returned %d -> %s%s"
          v.v_read_id v.v_proc v.v_label v.v_loc v.v_value v.v_verdict
          (if v.v_fetched then " (fetched)" else "");
        (match v.v_source with
        | Some p ->
          line "    value from writer %d, shard %d, sseq %d" p.p_writer
            p.p_shard p.p_sseq
        | None -> line "    value is the initial value (no delivering write)");
        List.iter
          (fun { h_src; h_dst; h_sent; h_recv } ->
            line "    hop %d -> %d: sent %s, delivered %s" h_src h_dst
              (us h_sent) (us h_recv))
          (flight_of r v.v_source).f_hops;
        match v.v_overwritten_by with
        | Some o ->
          let f = flight_of r o.o_source in
          line "    overwritten by write #%d (value %d)%s" o.o_write_id
            o.o_value
            (match o.o_source with
            | Some p ->
              Printf.sprintf " from writer %d, shard %d, sseq %d" p.p_writer
                p.p_shard p.p_sseq
            | None -> "");
          List.iter
            (fun { h_src; h_dst; h_sent; h_recv } ->
              line "      hop %d -> %d: sent %s, delivered %s" h_src h_dst
                (us h_sent) (us h_recv))
            f.f_hops;
          List.iter
            (fun (node, at) -> line "      applied at node %d: %s" node (us at))
            f.f_applies;
          if not f.f_complete then
            line "      still in flight: never applied at every subscriber"
        | None -> ())
      vs);
  Buffer.contents b
