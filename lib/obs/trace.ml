module Json = Mc_util.Json

type event =
  | Complete of {
      name : string;
      cat : string;
      tid : int;
      ts : float;
      dur : float;
      args : (string * string) list;
    }
  | Instant of {
      name : string;
      cat : string;
      tid : int;
      ts : float;
      args : (string * string) list;
    }
  | Flow of {
      id : int;
      name : string;
      cat : string;
      src : int;
      dst : int;
      ts_send : float;
      ts_recv : float;
      args : (string * string) list;
    }
  | Counter of { name : string; tid : int; ts : float; value : float }

type sink = { on_event : event -> unit; on_close : unit -> unit }

type t = {
  ring : event option array;
  cap : int;
  mutable total : int; (* events ever emitted; write index is total mod cap *)
  mutable spans : int;
  mutable sinks : sink list;
}

let create ?(capacity = 65536) () =
  if capacity <= 0 then invalid_arg "Mc_obs.Trace.create: capacity must be positive";
  { ring = Array.make capacity None; cap = capacity; total = 0; spans = 0; sinks = [] }

let add_sink t s = t.sinks <- s :: t.sinks

let emit t ev =
  t.ring.(t.total mod t.cap) <- Some ev;
  t.total <- t.total + 1;
  List.iter (fun s -> s.on_event ev) t.sinks

let span t ?(cat = "op") ?(args = []) ~tid ~ts ~dur name =
  (* only operation slices count towards the span==ops parity invariant;
     auxiliary categories ("fetch" round trips, shard hops) do not. *)
  if String.equal cat "op" then t.spans <- t.spans + 1;
  emit t (Complete { name; cat; tid; ts; dur; args })

let instant t ?(cat = "event") ?(args = []) ~tid ~ts name =
  emit t (Instant { name; cat; tid; ts; args })

let flow t ?(cat = "msg") ?(args = []) ~id ~src ~dst ~ts_send ~ts_recv name =
  emit t (Flow { id; name; cat; src; dst; ts_send; ts_recv; args })

let counter t ~tid ~ts name value = emit t (Counter { name; tid; ts; value })

let events t =
  let n = min t.total t.cap in
  let start = if t.total <= t.cap then 0 else t.total mod t.cap in
  List.init n (fun i ->
      match t.ring.((start + i) mod t.cap) with
      | Some ev -> ev
      | None -> assert false)

let event_count t = t.total
let span_count t = t.spans
let dropped t = if t.total > t.cap then t.total - t.cap else 0
let capacity t = t.cap

let close t =
  List.iter (fun s -> s.on_close ()) t.sinks;
  t.sinks <- []

(* ---------------- Chrome trace_event export ---------------- *)

let num x = if Float.is_finite x then Printf.sprintf "%.9g" x else "0"

let args_json args =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> Json.quote k ^ ":" ^ Json.quote v) args)
  ^ "}"

let event_to_chrome_json ev =
  match ev with
  | Complete { name; cat; tid; ts; dur; args } ->
    Printf.sprintf
      "{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"ts\":%s,\"dur\":%s,\"args\":%s}"
      (Json.quote name) (Json.quote cat) tid (num ts) (num dur) (args_json args)
  | Instant { name; cat; tid; ts; args } ->
    Printf.sprintf
      "{\"name\":%s,\"cat\":%s,\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":%d,\"ts\":%s,\"args\":%s}"
      (Json.quote name) (Json.quote cat) tid (num ts) (args_json args)
  | Flow { id; name; cat; src; dst; ts_send; ts_recv; args } ->
    let start =
      Printf.sprintf
        "{\"name\":%s,\"cat\":%s,\"ph\":\"s\",\"id\":%d,\"pid\":0,\"tid\":%d,\"ts\":%s,\"args\":%s}"
        (Json.quote name) (Json.quote cat) id src (num ts_send) (args_json args)
    in
    let finish =
      Printf.sprintf
        "{\"name\":%s,\"cat\":%s,\"ph\":\"f\",\"bp\":\"e\",\"id\":%d,\"pid\":0,\"tid\":%d,\"ts\":%s,\"args\":%s}"
        (Json.quote name) (Json.quote cat) id dst (num ts_recv) (args_json args)
    in
    start ^ "\n" ^ finish
  | Counter { name; tid; ts; value } ->
    Printf.sprintf
      "{\"name\":%s,\"ph\":\"C\",\"pid\":0,\"tid\":%d,\"ts\":%s,\"args\":{\"value\":%s}}"
      (Json.quote name) tid (num ts) (num value)

let event_tids = function
  | Complete { tid; _ } | Instant { tid; _ } | Counter { tid; _ } -> [ tid ]
  | Flow { src; dst; _ } -> [ src; dst ]

let to_chrome t =
  let evs = events t in
  let tids =
    List.sort_uniq compare (List.concat_map event_tids evs)
  in
  let meta =
    List.map
      (fun tid ->
        Printf.sprintf
          "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"args\":{\"name\":\"proc %d\"}}"
          tid tid)
      tids
  in
  let bodies =
    List.concat_map (fun ev -> String.split_on_char '\n' (event_to_chrome_json ev)) evs
  in
  Printf.sprintf "{\"traceEvents\":[%s]}" (String.concat "," (meta @ bodies))

let jsonl_sink oc =
  {
    on_event = (fun ev -> output_string oc (event_to_chrome_json ev ^ "\n"));
    on_close = (fun () -> flush oc);
  }
