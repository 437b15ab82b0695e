(* Host-time spans recorded by the traced run around its calls into the
   library's layers. Spans are kept in memory and exported once, at the
   end, through [Mc_obs.Trace] (which takes caller-supplied timestamps,
   here host microseconds since the first span). *)

type span = {
  id : int;
  parent : int;  (** [-1] for a root *)
  name : string;
  start : int;  (** host ns *)
  stop : int;
}

type t = {
  mutable spans : span list;  (** newest first *)
  mutable next : int;
  mutable current : int;
}

let create () = { spans = []; next = 0; current = -1 }

let now () = Int64.to_int (Monotonic_clock.now ())

(* [record t name f] runs [f] inside a span named [name], nested under
   the innermost open span. *)
let record t name f =
  let id = t.next in
  let parent = t.current in
  t.next <- id + 1;
  t.current <- id;
  let start = now () in
  let finish () =
    t.spans <- { id; parent; name; start; stop = now () } :: t.spans;
    t.current <- parent
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

let spans t = List.rev t.spans
let duration s = s.stop - s.start

(* [covered ~start ~stop intervals] is the length of [start, stop)
   covered by the union of [intervals], each clipped to the window. *)
let covered ~start ~stop intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a start and b = min b stop in
        if a < b then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, (ca, cb)) (a, b) ->
        if a > cb then (total + (cb - ca), (a, b)) else (total, (ca, max cb b)))
      (0, (start, start))
      clipped
  in
  total + (snd last - fst last)

(* A span's self time: its duration minus the part of its interval the
   spans it caused cover. Children may overlap one another (a yielding
   call spans other fibers' work), so the union is subtracted, not the
   sum. *)
let self_time all s =
  let children =
    List.filter_map
      (fun c -> if c.parent = s.id then Some (c.start, c.stop) else None)
      all
  in
  duration s - covered ~start:s.start ~stop:s.stop children

let total_by_name all name =
  List.fold_left
    (fun acc s -> if s.name = name then acc + duration s else acc)
    0 all

(* Chrome trace of the spans: category = layer (the name up to its
   first dot), args carry the parent link and the self time. *)
let to_trace all =
  let tr = Mc_obs.Trace.create ~capacity:(max 1 (List.length all)) () in
  let t0 = List.fold_left (fun acc s -> min acc s.start) max_int all in
  let us ns = float_of_int ns /. 1e3 in
  List.iter
    (fun s ->
      let cat =
        match String.index_opt s.name '.' with
        | Some i -> String.sub s.name 0 i
        | None -> s.name
      in
      Mc_obs.Trace.span tr ~cat ~tid:0
        ~ts:(us (s.start - t0))
        ~dur:(us (duration s))
        ~args:
          [
            ("id", string_of_int s.id);
            ("parent", string_of_int s.parent);
            ("self_us", Printf.sprintf "%.3f" (us (self_time all s)));
          ]
        s.name)
    all;
  tr
