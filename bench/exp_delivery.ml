(* EXP-DELIVERY: causal delivery drain and update batching *)

open Harness
module Protocol = Mc_dsm.Protocol

(* Worst case for a rescanned pending list: each writer's stream is fed
   newest-first (round-robin across writers), so nothing is deliverable
   until the writer's first update arrives — by then the buffer holds the
   writer's whole stream and each rescan pass would free exactly one
   update. The per-writer queues buffer each arrival in O(1) and drain
   the cascade in O(updates x procs). *)
let drain_workload ~p ~depth =
  let updates = ref [] in
  for useq = depth downto 1 do
    for w = 1 to p - 1 do
      let dep = Array.make p 0 in
      dep.(w) <- useq - 1;
      updates :=
        {
          Protocol.writer = w;
          useq;
          dep;
          loc = "x:" ^ string_of_int w;
          numeric = useq;
          tag = w;
          is_dec = false;
        }
        :: !updates
    done
  done;
  List.rev !updates

(* Host time of draining [updates] into a fresh replica (registry
   attached when [observed]), best of [reps]: the time and the updates
   left pending afterwards. *)
let drain ?(observed = false) ~reps ~p updates =
  let pending, t =
    time_after ~reps
      (fun () ->
        let r = Replica.create (Engine.create ()) ~id:0 ~n:p () in
        if observed then Replica.attach_metrics r (Metrics.Registry.create ());
        r)
      (fun r ->
        List.iter (Replica.receive r) updates;
        r)
  in
  (Replica.pending_count pending, t)

let batch_workload ~procs ~writes (api : Api.t) =
  let me = api.Api.proc_id in
  for k = 1 to writes do
    api.Api.write (Printf.sprintf "bw:%d:%d" me (k mod 8)) ((me * 1_000_000) + k)
  done;
  api.Api.barrier ();
  for j = 0 to procs - 1 do
    ignore (api.Api.read (Printf.sprintf "bw:%d:%d" j (writes mod 8)))
  done

(* the batching workload's runtime, spawned and not yet run *)
let batching_runtime ?(observe = false) ?tracer ~procs ~batch_max ~writes () =
  let cfg = { (Config.default ~procs) with batch_max; observe; tracer } in
  let rt = Runtime.create (Engine.create ()) cfg in
  for i = 0 to procs - 1 do
    Api.spawn rt i (batch_workload ~procs ~writes)
  done;
  rt

let p_c = col "p" ~key:"p"
let depth_c = field "depth"
let buffered = col "buffered" ~key:"buffered"
let fast = col "fast (s)" ~key:"fast_s"
let fast_rate = col "fast upd/s" ~key:"fast_updates_per_s"
let pending = hidden ()
let batch_max_c = col "batch_max" ~key:"batch_max"
let sim = col "sim time" ~key:"sim_time"
let msgs = col "msgs" ~key:"messages"
let bytes = col "bytes" ~key:"bytes"

let run ~quick =
  let drain_targets = if quick then [ 200; 1_000 ] else [ 1_000; 10_000 ] in
  let ps = [ 2; 4; 8 ] in
  let drain_row buffered_target p =
    let depth = max 1 (buffered_target / (p - 1)) in
    let n = depth * (p - 1) in
    (* best of 5: one sub-millisecond drain is mostly heap-growth noise *)
    let left, t = drain ~reps:5 ~p (drain_workload ~p ~depth) in
    row
      [ p_c, Int p; depth_c, Int depth; buffered, Int n; fast, Seconds t;
        fast_rate, Rate (float_of_int n /. Float.max t 1e-9); pending, Int left ]
  in
  let procs = 4 in
  let writes = if quick then 50 else 200 in
  let batch_row batch_max =
    let rt = batching_runtime ~procs ~batch_max ~writes () in
    let time = Runtime.run rt in
    let net = Runtime.network rt in
    row
      [ batch_max_c, Int batch_max; sim, Float time; msgs, Int (Network.messages_sent net);
        bytes, Int (Network.bytes_sent net) ]
  in
  let drain_t =
    table ~title:"EXP-DELIVERY/drain: buffered-update drain through the per-writer queues"
      [ p_c; depth_c; buffered; fast; fast_rate; pending ]
      (List.concat_map (fun target -> List.map (drain_row target) ps) drain_targets)
  in
  let batching =
    table
      ~title:
        (Printf.sprintf
           "EXP-DELIVERY/batching: %d procs x %d writes, delta-encoded update batches" procs
           writes)
      [ batch_max_c; sim; msgs; bytes ]
      (List.map batch_row [ 1; 8; 32 ])
  in
  {
    tables = [ drain_t; batching ];
    note =
      "per-writer FIFO queues make deliverability a single head check (channels are\n\
       FIFO, so only the head can apply). Batching coalesces consecutive same-writer\n\
       updates between sync points, delta-encoding the dependency clocks. Raw\n\
       numbers: BENCH_CORE.json.";
    json =
      [ "params",
        Fields
          [ "drain_targets", Ints drain_targets; "ps", Ints ps; "batch_procs", Int procs;
            "batch_writes", Int writes ];
        "drain", Rows drain_t; "batching", Rows batching ];
  }

let claims =
  [
    claim ~section:"Sec. 6" "every buffered update is applied" (fun rows ->
        List.for_all (fun r -> num r pending = 0.) (having pending rows));
    claim ~section:"Sec. 6" "larger batches send fewer messages and bytes" (fun rows ->
        let rows = having batch_max_c rows in
        let falling c = List.sort (Fun.flip compare) (List.map (fun r -> num r c) rows) in
        List.map (fun r -> num r msgs) rows = falling msgs
        && List.map (fun r -> num r bytes) rows = falling bytes);
  ]

let t = { id = "delivery"; name = "EXP-DELIVERY"; run; claims }
