(* Differential tests of the streaming pipeline against the offline
   record-then-check stack:

   - the online mixed-consistency checker must reproduce the closure
     engine's failures ([Lattice.closure_failures], which never replays;
     [Lattice.failures] itself replays this checker at streamable
     points) verdict-for-verdict, including [Overwritten]
     diagnostics, on random histories with locks, barriers, subset
     barriers, awaits and all three read labels, on 64-70 processes,
     with overlapping operations of one process, and on one location
     with more than a thousand touchers — per label, and also at the
     causal, PRAM and session points on 64-70 processes and at the
     causal and PRAM points with overlapping operations;
   - [History.program_order], built from suffix rows, must equal the
     definitional order of test/oracle.ml with overlapping fibers;
   - [History.causality], the closure of the covering, must equal the
     Warshall closure of the definitional orders (test/oracle.ml), and
     [Race.happens_before], folded over [Stream], must answer every
     pair like it, on histories with overlapping fibers, group barriers
     and incomplete episodes;
   - the engine must retire operations (bounded in-flight window) on
     workloads with synchronization, and a replay's death notices must
     wait for every reader of the value, an earlier reader that
     finalizes late and an await after the last memory read included;
   - recorder edge cases: overlapping fiber tokens, grant sequences,
     out-of-range processes. *)

module Op = Mc_history.Op
module History = Mc_history.History
module Recorder = Mc_history.Recorder
module Stream = Mc_history.Stream
module Dsl = Mc_history.Dsl
module Lattice = Mc_consistency.Lattice
module Online = Mc_consistency.Online
module Read_rule = Mc_consistency.Read_rule
module Race = Mc_analysis.Race
module Relation = Mc_util.Relation

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Random histories with synchronization                               *)
(* ------------------------------------------------------------------ *)

(* Per process, a program of segments separated by global barriers; a
   segment is a list of simple choices. Writes get globally unique
   values; reads and awaits guess among the written values or 0.
   Critical sections take whole-section grant numbers in (segment,
   process) order so the grant order usually agrees with the barrier
   order (cyclic outcomes are discarded like everywhere else).

   The richer variant also overlaps two operations of one process
   ([Fibers]) and draws each segment boundary as a plain or a group
   barrier, possibly with one member absent (an episode that never
   completes). *)

type simple = {
  s_is_write : bool;
  s_loc : int;
  s_guess : int;
  s_label : int; (* 0 PRAM, 1 Causal, 2+ group selector *)
}

type choice =
  | Simple of simple
  | Section of bool * int * simple list (* write?, lock, body *)
  | Await_of of int * int (* loc, guess *)
  | Fibers of simple * simple (* two overlapping operations *)

type program = choice list list (* segments, separated by barriers *)

(* a segment boundary: a plain barrier ([members = None]) or a group
   barrier; [absent] never reaches it *)
type boundary = { members : int list option; absent : int option }

let simple_gen =
  QCheck.Gen.(
    map
      (fun (w, loc, g, l) -> { s_is_write = w; s_loc = loc; s_guess = g; s_label = l })
      (tup4 bool (int_bound 2) (int_bound 11) (int_bound 3)))

let choice_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun s -> Simple s) simple_gen);
        ( 2,
          map3
            (fun w lock body -> Section (w, lock, body))
            bool (int_bound 1)
            (list_size (int_bound 2) simple_gen) );
        (1, map2 (fun loc g -> Await_of (loc, g)) (int_bound 2) (int_bound 11));
      ])

let rich_choice_gen =
  QCheck.Gen.(
    frequency [ (5, choice_gen); (1, map2 (fun a b -> Fibers (a, b)) simple_gen simple_gen) ])

let boundary_gen ~procs =
  QCheck.Gen.(
    map2
      (fun mask absent ->
        {
          members =
            (if mask = 0 then None
             else Some (List.filter (fun p -> mask land (1 lsl p) <> 0) (List.init procs Fun.id)));
          absent = (if absent < procs then Some absent else None);
        })
      (int_bound ((1 lsl procs) - 1))
      (int_bound (3 * procs)))

let program_gen ?(choice = choice_gen) ~segments ~max_ops () =
  QCheck.Gen.(list_size (return segments) (list_size (int_bound max_ops) choice))

let programs_gen ?choice ~procs ~segments ~max_ops () =
  QCheck.Gen.(list_size (return procs) (program_gen ?choice ~segments ~max_ops ()))

(* materialize: pre-assign write values left-to-right so guesses can
   refer to any of them, then record each process's program with grant
   numbers. Without [boundaries] every boundary is a plain barrier. *)
let history_of_programs ?boundaries ~procs (progs : program list) =
  let next_value = ref 0 in
  let values = ref [ 0 ] in
  let collect_simple s =
    if s.s_is_write then begin
      incr next_value;
      values := !next_value :: !values
    end
  in
  List.iter
    (List.iter
       (List.iter (function
         | Simple s -> collect_simple s
         | Section (_, _, body) -> List.iter collect_simple body
         | Await_of _ -> ()
         | Fibers (a, b) ->
           collect_simple a;
           collect_simple b)))
    progs;
  let values = Array.of_list (List.rev !values) in
  let next_value = ref 0 in
  let lock_seq = Array.make 2 0 in
  let label_of proc l =
    match l with
    | 0 -> Op.PRAM
    | 1 -> Op.Causal
    | 2 -> Op.Group (List.sort_uniq compare [ proc; (proc + 1) mod procs ])
    | _ -> Op.Group (List.init procs Fun.id)
  in
  let kind_of_simple proc s =
    let loc = "v" ^ string_of_int s.s_loc in
    if s.s_is_write then begin
      incr next_value;
      Op.Write { loc; value = !next_value }
    end
    else
      let value = values.(s.s_guess mod Array.length values) in
      Op.Read { loc; label = label_of proc s.s_label; value }
  in
  let segments = List.length (List.hd progs) in
  (* per proc, per segment: operations, each [`Op (grant, kind)] or an
     overlapping [`Pair] *)
  let out = Array.make_matrix procs segments [] in
  for seg = 0 to segments - 1 do
    List.iteri
      (fun proc prog ->
        let op kind = `Op (-1, kind) in
        out.(proc).(seg) <-
          List.concat_map
            (function
              | Simple s -> [ op (kind_of_simple proc s) ]
              | Section (w, lock, body) ->
                let l = "m" ^ string_of_int lock in
                let s0 = lock_seq.(lock) in
                lock_seq.(lock) <- s0 + 2;
                let body = List.map (fun s -> op (kind_of_simple proc s)) body in
                if w then
                  (`Op (s0, Op.Write_lock l) :: body) @ [ `Op (s0 + 1, Op.Write_unlock l) ]
                else (`Op (s0, Op.Read_lock l) :: body) @ [ `Op (s0 + 1, Op.Read_unlock l) ]
              | Await_of (loc, g) ->
                let value = values.(g mod Array.length values) in
                [ op (Op.Await { loc = "v" ^ string_of_int loc; value }) ]
              | Fibers (a, b) ->
                let a = kind_of_simple proc a in
                [ `Pair (a, kind_of_simple proc b) ])
            (List.nth prog seg))
      progs
  done;
  let barrier proc seg =
    match boundaries with
    | None -> [ `Op (-1, Op.Barrier seg) ]
    | Some bs -> (
      let b = List.nth bs seg in
      if b.absent = Some proc then []
      else
        match b.members with
        | None -> [ `Op (-1, Op.Barrier seg) ]
        | Some members when List.mem proc members ->
          [ `Op (-1, Op.Barrier_group { episode = seg; members }) ]
        | Some _ -> [])
  in
  let r = Recorder.create ~procs () in
  for proc = 0 to procs - 1 do
    for seg = 0 to segments - 1 do
      List.iter
        (function
          | `Op (sync_seq, kind) -> ignore (Recorder.record r ~proc ~sync_seq kind)
          | `Pair (a, b) ->
            let ta = Recorder.start r ~proc in
            let tb = Recorder.start r ~proc in
            ignore (Recorder.finish r ta a);
            ignore (Recorder.finish r tb b))
        (out.(proc).(seg) @ if seg < segments - 1 then barrier proc seg else [])
    done
  done;
  Recorder.history r

let sync_history_arb ~procs ~segments ~max_ops =
  QCheck.make
    ~print:(fun progs ->
      Format.asprintf "%a" History.pp (history_of_programs ~procs progs))
    (programs_gen ~procs ~segments ~max_ops ())

(* [sync_history_arb] with overlapping fibers, group barriers and
   incomplete episodes *)
let rich_history_arb ~procs ~segments ~max_ops =
  QCheck.make
    ~print:(fun (progs, boundaries) ->
      Format.asprintf "%a" History.pp (history_of_programs ~boundaries ~procs progs))
    QCheck.Gen.(
      pair
        (programs_gen ~choice:rich_choice_gen ~procs ~segments ~max_ops ())
        (list_size (return (segments - 1)) (boundary_gen ~procs)))

let acyclic h = QCheck.assume (History.causality_is_acyclic h)

let online_matches_offline h =
  acyclic h;
  let offline = Lattice.closure_failures h Lattice.Mixed in
  let chk = Online.check h in
  (* failure lists must agree exactly: ids, labels and diagnostics *)
  if offline <> Online.failures chk then begin
    Format.eprintf "history:@.%a@.offline:@." History.pp h;
    List.iter (fun f -> Format.eprintf "  %a@." Lattice.pp_failure f) offline;
    Format.eprintf "online:@.";
    List.iter (fun f -> Format.eprintf "  %a@." Lattice.pp_failure f)
      (Online.failures chk);
    false
  end
  else true

let online_diff_memory_only =
  QCheck.Test.make ~name:"online = offline on memory-only histories" ~count:500
    (sync_history_arb ~procs:3 ~segments:1 ~max_ops:6)
    (fun progs -> online_matches_offline (history_of_programs ~procs:3 progs))

let online_diff_sync =
  QCheck.Test.make ~name:"online = offline with locks, barriers, awaits"
    ~count:500
    (sync_history_arb ~procs:3 ~segments:3 ~max_ops:4)
    (fun progs -> online_matches_offline (history_of_programs ~procs:3 progs))

let online_diff_more_procs =
  QCheck.Test.make ~name:"online = offline on 4 processes" ~count:200
    (sync_history_arb ~procs:4 ~segments:2 ~max_ops:4)
    (fun progs -> online_matches_offline (history_of_programs ~procs:4 progs))

(* the causal, PRAM and session points *)
let uniform_points =
  Lattice.
    [
      Causal;
      PRAM;
      Session [];
      Session [ Read_your_writes ];
      Session [ Monotonic_reads ];
      Session [ Read_your_writes; Monotonic_reads ];
    ]

(* online = the closure engine per label ([Mixed]) and, in one more
   replay, at each of [points], failure lists compared whole *)
let online_matches_at_points ~points h =
  let groups = Online.groups_of_history h in
  online_matches_offline h
  && List.for_all2
       (fun m online ->
         Lattice.closure_failures h m = online
         || begin
              Format.eprintf "online disagrees under %a:@.%a@." Lattice.pp m
                History.pp h;
              false
            end)
       points
       (Online.point_failures (Online.check ~groups ~points h))

(* 64-70 processes with pairwise group labels: 1 causal + one PRAM per
   process + the pair groups, more families than bits in an [int] *)
let online_diff_many_procs =
  let gen =
    QCheck.Gen.(
      int_range 64 70 >>= fun procs ->
      int_range 1 2 >>= fun segments ->
      map (fun progs -> (procs, progs)) (programs_gen ~procs ~segments ~max_ops:1 ()))
  in
  QCheck.Test.make ~name:"online = offline on 64-70 processes" ~count:100
    (QCheck.make
       ~print:(fun (procs, progs) ->
         Format.asprintf "%a" History.pp (history_of_programs ~procs progs))
       gen)
    (fun (procs, progs) ->
      online_matches_at_points ~points:uniform_points (history_of_programs ~procs progs))

(* Overlapping operations of one process make program order partial, so
   a process runs on several chains and its clocks join across them. A
   step starts an operation or finishes an open one, as a write of a
   fresh value or a read (PRAM, causal or pair-group) of a guessed one. *)
let overlapping_history ~procs steps =
  let r = Recorder.create ~procs () in
  let pending = Array.make procs [] in
  let next = ref 0 in
  let finish proc i (loc, guess, label) =
    let tok = List.nth pending.(proc) i in
    pending.(proc) <- List.filteri (fun j _ -> j <> i) pending.(proc);
    let loc = "v" ^ string_of_int loc in
    let kind =
      if guess < 3 then begin
        incr next;
        Op.Write { loc; value = !next }
      end
      else
        let label =
          match label with
          | 0 -> Op.PRAM
          | 1 -> Op.Causal
          | _ -> Op.Group [ proc; (proc + 1) mod procs ]
        in
        Op.Read { loc; label; value = guess - 3 }
    in
    ignore (Recorder.finish r tok kind)
  in
  List.iter
    (fun (proc, start, pick, op) ->
      if start || pending.(proc) = [] then
        pending.(proc) <- pending.(proc) @ [ Recorder.start r ~proc ]
      else finish proc (pick mod List.length pending.(proc)) op)
    steps;
  Array.iteri
    (fun proc l -> List.iter (fun _ -> finish proc 0 (0, 3, 0)) l)
    pending;
  Recorder.history r

let overlapping_arb ~procs ~max_steps =
  let step =
    QCheck.Gen.(
      tup4 (int_bound (procs - 1)) bool (int_bound 3)
        (tup3 (int_bound 1) (int_bound 9) (int_bound 2)))
  in
  QCheck.make
    ~print:(fun steps -> Format.asprintf "%a" History.pp (overlapping_history ~procs steps))
    QCheck.Gen.(list_size (int_range 4 max_steps) step)

let online_diff_overlapping =
  QCheck.Test.make ~name:"online = offline with overlapping operations" ~count:300
    (overlapping_arb ~procs:3 ~max_steps:30)
    (fun steps ->
      (* not the session points: their rule reads a process's own
         operations in finalization order, which is its program order
         only when none of them overlap *)
      online_matches_at_points ~points:Lattice.[ Causal; PRAM ]
        (overlapping_history ~procs:3 steps))

let program_order_definitional =
  QCheck.Test.make ~name:"program order = definitional with overlapping fibers" ~count:300
    (overlapping_arb ~procs:3 ~max_steps:40)
    (fun steps ->
      let h = overlapping_history ~procs:3 steps in
      Relation.equal (History.program_order h) (Oracle.program_order h))

(* ------------------------------------------------------------------ *)
(* One hot location                                                    *)
(* ------------------------------------------------------------------ *)

(* More than a thousand touchers of [x]. Two writers (p0 writes 1..n, p1
   writes 1001..1000+n) read back every value they write and, every
   tenth write, re-read their own value from three writes back; two
   readers (p2, p3) follow both writers' values and every seventh read
   returns a value two writes stale. Labels cycle PRAM, causal and the
   reader's pair group; p3 awaits one of p1's values and later reads the
   initial 0. A barrier splits every program in half and no read returns
   a value from a later half, so causality is acyclic. Each stale read
   has several eligible interposers (later writes of the writer, the
   reader's own reads), and the diagnostic must name the smallest.

   The tail engineers a foreign-family query: p1 reads p0's last value
   9000 causally, writes 9001 and then y; p2 reads y and then x = 9000
   with a PRAM label. The write of 9001 follows 9000 only through p0 →
   p1 reads-from, an edge PRAM(p2) does not contain, so the read is valid
   per label and under uniform PRAM, and overwritten under causal. *)
let hot_history ~n =
  let half = n / 2 in
  let read p k v =
    match k mod 3 with
    | 0 -> Dsl.rp "x" v
    | 1 -> Dsl.rc "x" v
    | _ -> Dsl.rg [ p; (p + 1) mod 4 ] "x" v
  in
  let writer p base =
    List.concat
      (List.init n (fun i ->
           let k = i + 1 in
           [ Dsl.w "x" (base + k); read p k (base + k) ]
           @ (if k mod 10 = 0 then [ read p (k + 1) (base + k - 3) ] else [])
           @ if k = half then [ Dsl.bar 0 ] else []))
  in
  let reader p =
    let last = [| 0; 0 |] and step = ref 0 in
    let reads ~limit ~count =
      List.init count (fun j ->
          incr step;
          let wr = j mod 2 in
          let base = 1000 * wr in
          if !step mod 7 = 0 && last.(wr) > 2 then read p !step (base + last.(wr) - 2)
          else begin
            last.(wr) <- min limit (last.(wr) + 1 + (!step mod 2));
            read p !step (base + last.(wr))
          end)
    in
    let first = reads ~limit:half ~count:(n / 2) in
    let second = reads ~limit:n ~count:(n / 2) in
    if p = 3 then
      first @ [ Dsl.await "x" (1000 + half); Dsl.bar 0; Dsl.rp "x" 0 ] @ second
    else first @ (Dsl.bar 0 :: second)
  in
  Dsl.make ~procs:4
    [
      writer 0 0 @ [ Dsl.w "x" 9000 ];
      writer 1 1000 @ [ Dsl.rc "x" 9000; Dsl.w "x" 9001; Dsl.w "y" 5 ];
      reader 2 @ [ Dsl.rp "y" 5; Dsl.rp "x" 9000 ];
      reader 3;
    ]

let test_hot_location () =
  let h = hot_history ~n:200 in
  check "acyclic" true (History.causality_is_acyclic h);
  check "more than 1000 touchers of x" true (List.length (History.ops_at h "x") > 1000);
  check "online = offline per label, causal, PRAM and session" true
    (online_matches_at_points ~points:uniform_points h);
  let ops = History.ops h in
  let find p kind =
    let r = ref (-1) in
    Array.iter (fun (o : Op.t) -> if o.proc = p && o.kind = kind && !r < 0 then r := o.id) ops;
    !r
  in
  let failures = Online.failures (Online.check h) in
  let verdict id =
    List.find_map
      (fun (f : Lattice.failure) -> if f.Lattice.read_id = id then Some f.Lattice.verdict else None)
      failures
  in
  (* p0's first stale read returns 7 after writing 8, 9 and 10 and reading
     each back: six eligible interposers, the smallest is the write of 8 *)
  let stale =
    find 0 (Op.Read { loc = "x"; label = Op.Group [ 0; 1 ]; value = 7 })
  in
  check "stale read names the smallest interposer" true
    (verdict stale = Some (Read_rule.Overwritten (find 0 (Op.Write { loc = "x"; value = 8 }))));
  let tail = find 2 (Op.Read { loc = "x"; label = Op.PRAM; value = 9000 }) in
  check "foreign-family interposer does not count per label" true (verdict tail = None);
  check "it does under causal" true
    (List.exists
       (fun (f : Lattice.failure) -> f.Lattice.read_id = tail)
       (Online.failures (Online.check ~points:[ Lattice.Causal ] h)))

(* ------------------------------------------------------------------ *)
(* Happens-before and the covering against the definitions            *)
(* ------------------------------------------------------------------ *)

let hb_matches h causality =
  let hb = Race.happens_before h in
  let n = History.length h in
  let ok = ref true in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j && hb i j <> Relation.mem causality i j then ok := false
    done
  done;
  !ok

(* these histories have read locks and awaits, which the analysis
   suite's generator never produces *)
let hb_diff =
  QCheck.Test.make ~name:"Hb = causality on sync histories" ~count:300
    (sync_history_arb ~procs:3 ~segments:2 ~max_ops:4)
    (fun progs ->
      let h = history_of_programs ~procs:3 progs in
      acyclic h;
      hb_matches h (Oracle.causality h))

let covering_diff =
  QCheck.Test.make ~name:"covering closes to the definitional orders" ~count:300
    (rich_history_arb ~procs:3 ~segments:3 ~max_ops:3)
    (fun (progs, boundaries) ->
      let h = history_of_programs ~boundaries ~procs:3 progs in
      acyclic h;
      let causality = Oracle.causality h in
      Relation.equal (History.causality h) causality && hb_matches h causality)

(* ------------------------------------------------------------------ *)
(* Engine window                                                       *)
(* ------------------------------------------------------------------ *)

let test_engine_retires () =
  (* a long lock-ping-pong run recorded in real-time order (sections of
     the two processes alternate): the in-flight window must stay far
     below the history length *)
  let sections = 200 in
  let r = Recorder.create ~procs:2 () in
  for k = 0 to sections - 1 do
    let proc = k mod 2 in
    ignore
      (Recorder.record r ~proc
         ~sync_seq:(Recorder.grant_seq r "m")
         (Op.Write_lock "m"));
    ignore
      (Recorder.record r ~proc
         (Op.Write { loc = Printf.sprintf "x%d" proc; value = k + 1 }));
    ignore
      (Recorder.record r ~proc
         ~sync_seq:(Recorder.grant_seq r "m")
         (Op.Write_unlock "m"))
  done;
  let h = Recorder.history r in
  let chk = Online.check h in
  let stats = Online.stats chk in
  check_int "all ops checked" (History.length h) stats.Online.ops_checked;
  check "window is bounded" true
    (stats.Online.max_resident < History.length h / 4)

(* A replay announces a value dead after its last reader by id; the
   notice lands once every reader of it has finalized. Both histories
   below are checked at every streamable point in one replay, each
   point against the closure engine. *)
let replay_points = Lattice.Mixed :: uniform_points

let check_replay_points h =
  let chk = Online.check ~points:replay_points h in
  List.iter2
    (fun m got ->
      check ("verdicts at " ^ Lattice.to_string m) true (got = Lattice.closure_failures h m))
    replay_points (Online.point_failures chk);
  chk

(* p1's read of x = 1 (id 3) is its last reader by id and finalizes at
   once; p0's read of it (id 2) comes first by id but waits on its
   barrier's episode, which p2 closes last (id 5). A death sent at id 3
   would drop the writer's summary before id 2 is checked. *)
let test_death_waits_for_readers () =
  let r = Recorder.create ~procs:3 () in
  let record proc kind = ignore (Recorder.record r ~proc kind) in
  record 2 (Op.Write { loc = "x"; value = 1 });
  record 0 (Op.Barrier 0);
  record 0 (Op.Read { loc = "x"; label = Op.PRAM; value = 1 });
  record 1 (Op.Read { loc = "x"; label = Op.Causal; value = 1 });
  record 1 (Op.Barrier 0);
  record 2 (Op.Barrier 0);
  let chk = check_replay_points (Recorder.history r) in
  check_int "no failure" 0 (List.length (Online.failures chk));
  check_int "the read value's summary is reclaimed" 0 (Online.stats chk).Online.live_summaries

(* p1's read of x = 1 (id 2) is x's last memory read; p2's await of it
   (id 3) comes later, and its reads-from edge from p0's write of x
   orders p0's write of y before p2's causal read of y = 0 (id 4). A
   death sent after id 2 would leave the await without its writer. *)
let test_death_waits_for_awaits () =
  let r = Recorder.create ~procs:3 () in
  let record proc kind = ignore (Recorder.record r ~proc kind) in
  record 0 (Op.Write { loc = "y"; value = 5 });
  record 0 (Op.Write { loc = "x"; value = 1 });
  record 1 (Op.Read { loc = "x"; label = Op.PRAM; value = 1 });
  record 2 (Op.Await { loc = "x"; value = 1 });
  record 2 (Op.Read { loc = "y"; label = Op.Causal; value = 0 });
  let chk = check_replay_points (Recorder.history r) in
  check "the causal read is overwritten by the write of y" true
    (Online.failures chk
    = [ { Lattice.read_id = 4; label = Op.Causal; verdict = Read_rule.Overwritten 0 } ])

let test_online_rejects_unregistered_group () =
  let h = Dsl.make ~procs:3 [ [ Dsl.rg [ 0; 1 ] "x" 0 ]; []; [] ] in
  let chk = Online.create ~procs:3 () in
  Alcotest.check_raises "unregistered group"
    (Invalid_argument "Online: unregistered reader group (pass it via ~groups)")
    (fun () -> Stream.replay (Online.engine chk) h)

let test_groups_of_history () =
  let h =
    Dsl.make ~procs:3
      [ [ Dsl.rg [ 0; 1 ] "x" 0; Dsl.rg [ 1; 0 ] "x" 0 ]; [ Dsl.rp "x" 0 ]; [] ]
  in
  check "harvested" true (Online.groups_of_history h = [ [ 0; 1 ] ])

(* ------------------------------------------------------------------ *)
(* Runtime integration: online checking during execution               *)
(* ------------------------------------------------------------------ *)

module Engine = Mc_sim.Engine
module Runtime = Mc_dsm.Runtime
module Config = Mc_dsm.Config
module Api = Mc_dsm.Api

let run_checked ?(procs = 3) ?(groups = []) f =
  let engine = Engine.create () in
  let cfg =
    { (Config.default ~procs) with record = true; check_online = true; groups }
  in
  let rt = Runtime.create engine cfg in
  f rt (Api.spawn rt);
  ignore (Runtime.run rt);
  let chk = Option.get (Runtime.online_checker rt) in
  (Runtime.history rt, chk)

(* the online verdicts produced during the run must equal the closure
   engine's verdicts on the history recorded alongside *)
let runtime_differential h chk =
  let offline = Lattice.closure_failures h Lattice.Mixed in
  let online = Online.failures chk in
  let stats = Online.stats chk in
  stats.Online.ops_checked = History.length h && offline = online

(* a small interpreted workload language for random runtime programs *)
type rt_step =
  | Rt_write of int
  | Rt_read of int * int (* loc, label selector *)
  | Rt_wsection of int * int list (* lock, write locs *)
  | Rt_rsection of int * (int * int) list (* lock, reads *)

let rt_step_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun l -> Rt_write l) (int_bound 2));
        (4, map2 (fun l lab -> Rt_read (l, lab)) (int_bound 2) (int_bound 2));
        (1, map2 (fun l ws -> Rt_wsection (l, ws)) (int_bound 1)
             (list_size (int_bound 2) (int_bound 2)));
        (1, map2 (fun l rs -> Rt_rsection (l, rs)) (int_bound 1)
             (list_size (int_bound 2) (tup2 (int_bound 2) (int_bound 2))));
      ])

let rt_programs_gen ~procs ~segments =
  QCheck.Gen.(
    list_size (return procs)
      (list_size (return segments) (list_size (int_bound 4) rt_step_gen)))

let rt_workload_arb ~procs ~segments =
  QCheck.make
    ~print:(fun progs ->
      String.concat "|"
        (List.map (fun p -> string_of_int (List.length (List.concat p))) progs))
    (rt_programs_gen ~procs ~segments)

let run_random_workload ~procs progs =
  let groups = [ [ 0; 1 ] ] in
  let label_of proc sel =
    match sel with
    | 0 -> Op.PRAM
    | 1 -> Op.Causal
    | _ -> if proc <= 1 then Op.Group [ 0; 1 ] else Op.Causal
  in
  let loc l = "v" ^ string_of_int l in
  let lock l = "m" ^ string_of_int l in
  run_checked ~procs ~groups (fun rt spawn ->
      ignore spawn;
      List.iteri
        (fun i prog ->
          Runtime.spawn_process rt i (fun p ->
              List.iter
                (fun seg ->
                  List.iter
                    (fun step ->
                      match step with
                      | Rt_write l ->
                        Runtime.write p (loc l) ((100 * i) + l)
                      | Rt_read (l, sel) ->
                        ignore (Runtime.read p ~label:(label_of i sel) (loc l))
                      | Rt_wsection (m, ws) ->
                        Runtime.write_lock p (lock m);
                        List.iter
                          (fun l -> Runtime.write p (loc l) ((100 * i) + l))
                          ws;
                        Runtime.write_unlock p (lock m)
                      | Rt_rsection (m, rs) ->
                        Runtime.read_lock p (lock m);
                        List.iter
                          (fun (l, sel) ->
                            ignore
                              (Runtime.read p ~label:(label_of i sel) (loc l)))
                          rs;
                        Runtime.read_unlock p (lock m))
                    seg;
                  Runtime.barrier p)
                prog))
        progs)

let online_diff_runtime =
  QCheck.Test.make ~name:"online = offline on random runtime workloads"
    ~count:60
    (rt_workload_arb ~procs:3 ~segments:2)
    (fun progs ->
      let h, chk = run_random_workload ~procs:3 progs in
      runtime_differential h chk)

(* ------------------------------------------------------------------ *)
(* Section-5 applications under online checking                        *)
(* ------------------------------------------------------------------ *)

module Solver = Mc_apps.Linear_solver
module Em = Mc_apps.Em_field
module Sparse = Mc_apps.Sparse_spd
module Cholesky = Mc_apps.Cholesky

let app_differential ?(procs = 3) ?(groups = []) name f =
  let h, chk = run_checked ~procs ~groups (fun rt spawn -> ignore (f rt spawn)) in
  check (name ^ ": online = offline") true (runtime_differential h chk)

let solver_problem = Solver.Problem.generate ~seed:42 ~n:8

let test_app_solver_barrier () =
  app_differential ~procs:4 "solver barrier" (fun _ spawn ->
      Solver.launch ~spawn ~procs:4 ~variant:Solver.Barrier_pram solver_problem)

let test_app_solver_handshake () =
  app_differential "solver handshake" (fun _ spawn ->
      Solver.launch ~spawn ~procs:3 ~variant:Solver.Handshake_causal
        solver_problem)

let test_app_solver_group () =
  app_differential ~groups:(Solver.solver_groups ~procs:3) "solver group"
    (fun _ spawn ->
      Solver.launch ~spawn ~procs:3 ~variant:Solver.Handshake_group
        solver_problem)

let test_app_em_field () =
  let params = { Em.rows = 9; cols = 5; steps = 4; seed = 5 } in
  app_differential "em field" (fun _ spawn ->
      Em.launch ~spawn ~procs:3 params)

let test_app_cholesky_locks () =
  let m = Sparse.generate ~seed:11 ~n:10 ~density:0.3 in
  app_differential "cholesky locks" (fun _ spawn ->
      Cholesky.launch ~spawn ~procs:3 ~variant:Cholesky.Lock_based m)

let test_app_cholesky_counters () =
  let m = Sparse.generate ~seed:11 ~n:10 ~density:0.3 in
  app_differential "cholesky counters" (fun _ spawn ->
      Cholesky.launch ~spawn ~procs:3 ~variant:Cholesky.Counter_based m)

let test_app_pipeline () =
  let params = { Mc_apps.Pipeline.items = 15; slots = 3; work = 2.0 } in
  app_differential "pipeline awaits" (fun _ spawn ->
      Mc_apps.Pipeline.launch ~spawn ~procs:3 ~impl:Mc_apps.Pipeline.Await_based
        params)

let test_stability_reclaims () =
  (* a barrier-phased run long enough for sweeps to retire state: the
     checker must end with far fewer live summaries than writes *)
  let rounds = 40 in
  let _, chk =
    run_checked ~procs:3 (fun rt _ ->
        for i = 0 to 2 do
          Runtime.spawn_process rt i (fun p ->
              for r = 1 to rounds do
                Runtime.write p (Printf.sprintf "x%d" i) r;
                Runtime.barrier p;
                ignore (Runtime.read p ~label:Op.Causal "x0");
                Runtime.barrier p
              done)
        done)
  in
  let stats = Online.stats chk in
  check "summaries reclaimed" true
    (stats.Online.live_summaries < rounds * 3 / 2);
  check "window bounded" true
    (stats.Online.max_resident < stats.Online.ops_checked / 4)

(* The benchmark's solver-online run (mcdsm solver --variant handshake
   --check-online -n 96 -w 8) synchronizes by awaits only, so only the
   sweeps at await completions can reclaim checker state before the end
   of the run. Sampled every 100 us from engine callbacks, the live
   summaries must fall at some point during the run, and at 2,400 us,
   just before its end, stay close to what the final sweep leaves. *)
let test_await_sweeps_reclaim () =
  let procs = 9 in
  let problem = Solver.Problem.generate ~seed:42 ~n:96 in
  let engine = Engine.create () in
  let rt = Runtime.create engine { (Config.default ~procs) with check_online = true } in
  ignore (Solver.launch ~spawn:(Api.spawn rt) ~procs ~variant:Solver.Handshake_causal problem);
  let live () = (Online.stats (Option.get (Runtime.online_checker rt))).Online.live_summaries in
  let samples = Array.make 25 0 in
  Array.iteri
    (fun k _ ->
      Engine.schedule engine ~delay:(float_of_int ((k + 1) * 100)) (fun () ->
          samples.(k) <- live ()))
    samples;
  ignore (Runtime.run rt);
  let final = live () in
  check_int "final live summaries" 113 final;
  check "reclaimed during the run" true
    (List.exists (fun k -> samples.(k) < samples.(k - 1)) (List.init 24 (fun k -> k + 1)));
  check
    (Printf.sprintf "live at 2,400 us (%d) near the final %d" samples.(23) final)
    true
    (2 * samples.(23) < 3 * final)

(* ------------------------------------------------------------------ *)
(* Recorder edge cases                                                 *)
(* ------------------------------------------------------------------ *)

let test_recorder_overlapping_tokens () =
  (* two fibers of one process overlap: program order must be partial *)
  let r = Recorder.create ~procs:1 () in
  let t1 = Recorder.start r ~proc:0 in
  let t2 = Recorder.start r ~proc:0 in
  ignore (Recorder.finish r t1 (Op.Write { loc = "x"; value = 1 }));
  let t3 = Recorder.start r ~proc:0 in
  ignore (Recorder.finish r t2 (Op.Write { loc = "y"; value = 2 }));
  ignore (Recorder.finish r t3 (Op.Write { loc = "z"; value = 3 }));
  let h = Recorder.history r in
  let po = History.program_order h in
  check "overlapped ops unordered" false
    (Mc_util.Relation.mem po 0 1 || Mc_util.Relation.mem po 1 0);
  (* op 2 started after op 0 finished *)
  check "sequential ops ordered" true (Mc_util.Relation.mem po 0 2)

let test_recorder_out_of_range_proc () =
  let r = Recorder.create ~procs:2 () in
  check "in range ok" true (Recorder.record r ~proc:1 (Op.Barrier 0) >= 0);
  (match Recorder.record r ~proc:2 (Op.Barrier 0) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range proc accepted");
  match Recorder.start r ~proc:(-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative proc accepted"

let test_recorder_grant_numbering () =
  let r = Recorder.create ~procs:2 () in
  check_int "starts at zero" 0 (Recorder.grant_seq r "a");
  check_int "increments" 1 (Recorder.grant_seq r "a");
  check_int "per lock" 0 (Recorder.grant_seq r "b");
  check_int "independent" 2 (Recorder.grant_seq r "a")

let test_streaming_only_recorder () =
  let r = Recorder.create ~materialize:false ~procs:2 () in
  let seen = ref 0 in
  Recorder.subscribe r (Mc_history.Sink.make (fun _ -> incr seen));
  ignore (Recorder.record r ~proc:0 (Op.Write { loc = "x"; value = 1 }));
  ignore (Recorder.record r ~proc:1 (Op.Read { loc = "x"; label = Op.PRAM; value = 1 }));
  check_int "sink saw both" 2 !seen;
  match Recorder.history r with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "history of a streaming-only recorder"

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "online"
    [
      ( "differential",
        [
          qt online_diff_memory_only;
          qt online_diff_sync;
          qt online_diff_more_procs;
          qt online_diff_many_procs;
          qt online_diff_overlapping;
          qt program_order_definitional;
          Alcotest.test_case "one hot location" `Quick test_hot_location;
          qt hb_diff;
          qt covering_diff;
        ] );
      ( "engine",
        [
          Alcotest.test_case "window bounded" `Quick test_engine_retires;
          Alcotest.test_case "replay death waits for readers" `Quick
            test_death_waits_for_readers;
          Alcotest.test_case "replay death waits for awaits" `Quick
            test_death_waits_for_awaits;
          Alcotest.test_case "unregistered group" `Quick
            test_online_rejects_unregistered_group;
          Alcotest.test_case "group harvest" `Quick test_groups_of_history;
        ] );
      ("runtime", [ qt online_diff_runtime ]);
      ( "apps",
        [
          Alcotest.test_case "solver barrier" `Quick test_app_solver_barrier;
          Alcotest.test_case "solver handshake" `Quick test_app_solver_handshake;
          Alcotest.test_case "solver group" `Quick test_app_solver_group;
          Alcotest.test_case "em field" `Quick test_app_em_field;
          Alcotest.test_case "cholesky locks" `Quick test_app_cholesky_locks;
          Alcotest.test_case "cholesky counters" `Quick
            test_app_cholesky_counters;
          Alcotest.test_case "pipeline awaits" `Quick test_app_pipeline;
          Alcotest.test_case "stability reclaims" `Quick test_stability_reclaims;
          Alcotest.test_case "await sweeps reclaim" `Quick test_await_sweeps_reclaim;
        ] );
      ( "recorder",
        [
          Alcotest.test_case "overlapping tokens" `Quick
            test_recorder_overlapping_tokens;
          Alcotest.test_case "out of range" `Quick test_recorder_out_of_range_proc;
          Alcotest.test_case "grant numbering" `Quick test_recorder_grant_numbering;
          Alcotest.test_case "streaming only" `Quick test_streaming_only_recorder;
        ] );
    ]
