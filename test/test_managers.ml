(* Direct unit tests of the protocol agents: the lock manager and the
   barrier manager state machines, exercised without the network. *)

module Lock_manager = Mc_dsm.Lock_manager
module Barrier_manager = Mc_dsm.Barrier_manager
module Protocol = Mc_dsm.Protocol

let _check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* collect outgoing messages instead of sending them. [drain log] returns
   everything sent so far in order; [take log] returns only the messages
   sent since the previous [take]. *)
type 'a log = { mutable entries : 'a list; mutable consumed : int }

let collector () =
  let log = { entries = []; consumed = 0 } in
  let send ~dst msg = log.entries <- (dst, msg) :: log.entries in
  (log, send)

let drain log = List.rev log.entries

let take log =
  let all = drain log in
  let fresh = List.filteri (fun i _ -> i >= log.consumed) all in
  log.consumed <- List.length all;
  fresh

let lock_request proc lock write = Protocol.Lock_request { proc; lock; write }

let unlock proc lock write ~n =
  Protocol.Unlock_msg
    { proc; lock; write; vc = Array.make n 0; write_set = []; values = [] }

(* ------------------------------------------------------------------ *)
(* Lock manager                                                        *)
(* ------------------------------------------------------------------ *)

let test_write_lock_fifo () =
  let log, send = collector () in
  let m = Lock_manager.create ~n:3 ~demand:false ~send in
  Lock_manager.handle m ~src:0 (lock_request 0 "m" true);
  Lock_manager.handle m ~src:1 (lock_request 1 "m" true);
  Lock_manager.handle m ~src:2 (lock_request 2 "m" true);
  (* only the first request is granted *)
  (match drain log with
  | [ (0, Protocol.Lock_grant { seq = 0; write = true; _ }) ] -> ()
  | msgs -> Alcotest.failf "expected one grant to p0, got %d messages" (List.length msgs));
  check_int "one grant" 1 (Lock_manager.grants_issued m);
  (* releasing grants the next in FIFO order *)
  Lock_manager.handle m ~src:0 (unlock 0 "m" true ~n:3);
  (match drain log with
  | [ _; (0, Protocol.Unlock_ack { seq = 1; _ }); (1, Protocol.Lock_grant { seq = 2; _ }) ]
    -> ()
  | msgs -> Alcotest.failf "unexpected sequence (%d messages)" (List.length msgs));
  check_int "two grants" 2 (Lock_manager.grants_issued m)

let test_readers_granted_together () =
  let log, send = collector () in
  let m = Lock_manager.create ~n:4 ~demand:false ~send in
  Lock_manager.handle m ~src:0 (lock_request 0 "m" false);
  Lock_manager.handle m ~src:1 (lock_request 1 "m" false);
  Lock_manager.handle m ~src:2 (lock_request 2 "m" true);
  Lock_manager.handle m ~src:3 (lock_request 3 "m" false);
  (* both leading readers granted; the writer blocks; the trailing reader
     queues behind the writer (strict FIFO, no writer starvation) *)
  let grants =
    List.filter_map
      (function dst, Protocol.Lock_grant _ -> Some dst | _ -> None)
      (drain log)
  in
  Alcotest.(check (list int)) "two readers in" [ 0; 1 ] grants;
  (* releasing both readers lets the writer in, then the last reader *)
  Lock_manager.handle m ~src:0 (unlock 0 "m" false ~n:4);
  Lock_manager.handle m ~src:1 (unlock 1 "m" false ~n:4);
  let grants =
    List.filter_map
      (function dst, Protocol.Lock_grant _ -> Some dst | _ -> None)
      (drain log)
  in
  Alcotest.(check (list int)) "writer after readers" [ 0; 1; 2 ] grants;
  Lock_manager.handle m ~src:2 (unlock 2 "m" true ~n:4);
  let grants =
    List.filter_map
      (function dst, Protocol.Lock_grant _ -> Some dst | _ -> None)
      (drain log)
  in
  Alcotest.(check (list int)) "trailing reader last" [ 0; 1; 2; 3 ] grants

let test_dep_accumulates_across_holders () =
  let log, send = collector () in
  let m = Lock_manager.create ~n:3 ~demand:false ~send in
  Lock_manager.handle m ~src:0 (lock_request 0 "m" true);
  Lock_manager.handle m ~src:0
    (Protocol.Unlock_msg
       { proc = 0; lock = "m"; write = true; vc = [| 5; 0; 0 |]; write_set = [];
         values = [] });
  Lock_manager.handle m ~src:1 (lock_request 1 "m" true);
  Lock_manager.handle m ~src:1
    (Protocol.Unlock_msg
       { proc = 1; lock = "m"; write = true; vc = [| 3; 7; 0 |]; write_set = [];
         values = [] });
  Lock_manager.handle m ~src:2 (lock_request 2 "m" true);
  let final_grant =
    List.rev (drain log) |> List.find_map (function
      | 2, Protocol.Lock_grant { dep; _ } -> Some dep
      | _ -> None)
  in
  (* the third holder must wait for the max of both releases *)
  Alcotest.(check (array int)) "accumulated dependency clock" [| 5; 7; 0 |]
    (Option.get final_grant)

let test_demand_write_sets_forwarded () =
  let log, send = collector () in
  let m = Lock_manager.create ~n:2 ~demand:true ~send in
  Lock_manager.handle m ~src:0 (lock_request 0 "m" true);
  Lock_manager.handle m ~src:0
    (Protocol.Unlock_msg
       {
         proc = 0;
         lock = "m";
         write = true;
         vc = [| 4; 0 |];
         write_set = [ "a"; "b" ];
         values = [];
       });
  Lock_manager.handle m ~src:1 (lock_request 1 "m" true);
  let invalid =
    List.rev (drain log) |> List.find_map (function
      | 1, Protocol.Lock_grant { invalid; _ } -> Some invalid
      | _ -> None)
  in
  let invalid = List.sort compare (Option.get invalid) in
  (match invalid with
  | [ ("a", dep_a); ("b", _) ] ->
    Alcotest.(check (array int)) "write-set dep" [| 4; 0 |] dep_a
  | _ -> Alcotest.fail "expected invalid entries for a and b");
  ()

let test_lock_errors () =
  let _, send = collector () in
  let m = Lock_manager.create ~n:2 ~demand:false ~send in
  (match Lock_manager.handle m ~src:0 (unlock 0 "m" true ~n:2) with
  | () -> Alcotest.fail "expected rejection of unmatched unlock"
  | exception Invalid_argument _ -> ());
  match Lock_manager.handle m ~src:1 (lock_request 0 "m" true) with
  | () -> Alcotest.fail "expected rejection of forged origin"
  | exception Invalid_argument _ -> ()

let test_independent_locks () =
  let log, send = collector () in
  let m = Lock_manager.create ~n:2 ~demand:false ~send in
  Lock_manager.handle m ~src:0 (lock_request 0 "a" true);
  Lock_manager.handle m ~src:1 (lock_request 1 "b" true);
  let grants =
    List.filter_map
      (function dst, Protocol.Lock_grant _ -> Some dst | _ -> None)
      (drain log)
  in
  Alcotest.(check (list int)) "different locks do not interfere" [ 0; 1 ] grants

(* ------------------------------------------------------------------ *)
(* Barrier manager                                                     *)
(* ------------------------------------------------------------------ *)

module Tree = Mc_placement.Placement.Tree

(* the runtime's barrier trees: processes in id order for a full
   barrier, node 0 then the members for a subset one *)
let barrier_tree ~fanout ~n members =
  Tree.create ~fanout
    (if members = [] then Array.init n Fun.id
     else Array.of_list (0 :: List.filter (fun m -> m <> 0) members))

(* node 0's combiner at a fanout of at least [n]: the central manager
   (vector clocks consult no receivers) *)
let central ?(receivers = fun _ -> []) ~n send =
  Barrier_manager.create ~node:0 ~tree:(barrier_tree ~fanout:n ~n) ~receivers ~send
    ~on_release:(fun ~members:_ ~episode:_ _ -> Alcotest.fail "node 0 is released by loopback")

let arrive ?(clock = Protocol.Vector [||]) proc episode vc members =
  let clock = if vc = [||] then clock else Protocol.Vector vc in
  Protocol.Barrier_arrive { proc; episode; members; clock }

let test_barrier_release_on_full_arrival () =
  let log, send = collector () in
  let m = central ~n:3 send in
  Barrier_manager.handle m ~src:0 (arrive 0 0 [| 1; 0; 0 |] []);
  Barrier_manager.handle m ~src:1 (arrive 1 0 [| 0; 2; 0 |] []);
  check_int "not released yet" 0 (List.length (drain log));
  Barrier_manager.handle m ~src:2 (arrive 2 0 [| 0; 0; 3 |] []);
  let releases = drain log in
  Alcotest.(check (list int)) "everyone released, node 0 first" [ 0; 1; 2 ]
    (List.map fst releases);
  List.iter
    (fun (_, msg) ->
      match msg with
      | Protocol.Barrier_release { clock = Protocol.Vector dep; episode = 0; _ } ->
        Alcotest.(check (array int)) "dep is the pointwise max" [| 1; 2; 3 |] dep
      | _ -> Alcotest.fail "expected a release")
    releases;
  check_int "episode counted" 1 (Barrier_manager.episodes_released m)

let test_barrier_interleaved_episodes () =
  (* a fast process may arrive at episode 1 before a slow one reaches
     episode 0 *)
  let log, send = collector () in
  let m = central ~n:2 send in
  Barrier_manager.handle m ~src:0 (arrive 0 0 [| 0; 0 |] []);
  Barrier_manager.handle m ~src:1 (arrive 1 0 [| 0; 0 |] []);
  check_int "episode 0 released" 2 (List.length (take log));
  Barrier_manager.handle m ~src:0 (arrive 0 1 [| 1; 0 |] []);
  check_int "episode 1 waits" 0 (List.length (take log));
  Barrier_manager.handle m ~src:1 (arrive 1 1 [| 0; 1 |] []);
  check_int "episode 1 released" 2 (List.length (take log))

let test_barrier_subset_release () =
  let log, send = collector () in
  let m = central ~n:4 send in
  Barrier_manager.handle m ~src:1 (arrive 1 0 [| 0; 1; 0; 0 |] [ 1; 3 ]);
  check_int "waits for the other member" 0 (List.length (drain log));
  Barrier_manager.handle m ~src:3 (arrive 3 0 [| 0; 0; 0; 4 |] [ 1; 3 ]);
  let releases = drain log in
  let recipients = List.map fst releases |> List.sort compare in
  Alcotest.(check (list int)) "only members released" [ 1; 3 ] recipients

let test_barrier_errors () =
  let _, send = collector () in
  let m = central ~n:3 send in
  Barrier_manager.handle m ~src:0 (arrive 0 0 [| 0; 0; 0 |] []);
  (match Barrier_manager.handle m ~src:0 (arrive 0 0 [| 0; 0; 0 |] []) with
  | () -> Alcotest.fail "expected double-arrival rejection"
  | exception Invalid_argument _ -> ());
  (match Barrier_manager.handle m ~src:1 (arrive 0 1 [| 0; 0; 0 |] []) with
  | () -> Alcotest.fail "expected forged-origin rejection"
  | exception Invalid_argument _ -> ());
  (match Barrier_manager.handle m ~src:0 (arrive 0 0 [| 0; 0; 0 |] [ 1 ]) with
  | () -> Alcotest.fail "expected non-member rejection"
  | exception Invalid_argument _ -> ());
  (* at fanout 1 the tree is the chain 0 - 1 - 2: node 2 is not a child
     of node 0 *)
  let chain =
    Barrier_manager.create ~node:0 ~tree:(barrier_tree ~fanout:1 ~n:3)
      ~receivers:(fun _ -> []) ~send
      ~on_release:(fun ~members:_ ~episode:_ _ -> ())
  in
  match Barrier_manager.handle chain ~src:2 (arrive 2 0 [| 0; 0; 0 |] []) with
  | () -> Alcotest.fail "expected a grandchild's arrival to be rejected"
  | exception Invalid_argument _ -> ()

(* count mode: the release tells each process how many updates of each
   (writer, shard) stream it subscribes to it must hold (Section 6) *)
let test_barrier_count_vectors () =
  let log, send = collector () in
  (* node 1 subscribes to shard 0 (written by node 0), node 0 to shard 1
     (written by node 1); shard 2 has node 1 as its only subscriber *)
  let receivers = function 0 -> [ 0; 1 ] | 1 -> [ 0; 1 ] | _ -> [ 1 ] in
  let m = central ~receivers ~n:2 send in
  Barrier_manager.handle m ~src:0 (arrive ~clock:(Protocol.Counts [ (0, 0, 3) ]) 0 0 [||] []);
  Barrier_manager.handle m ~src:1
    (arrive ~clock:(Protocol.Counts [ (1, 1, 5); (1, 2, 4) ]) 1 0 [||] []);
  let expects =
    List.filter_map
      (function
        | dst, Protocol.Barrier_release { clock = Protocol.Counts es; _ } -> Some (dst, es)
        | _ -> None)
      (drain log)
    |> List.sort compare
  in
  match expects with
  | [ (0, e0); (1, e1) ] ->
    Alcotest.(check (list (triple int int int))) "p0 expects 5 of (p1, shard 1)"
      [ (1, 1, 5) ] e0;
    Alcotest.(check (list (triple int int int))) "p1 expects 3 of (p0, shard 0)"
      [ (0, 0, 3) ] e1
  | _ -> Alcotest.fail "expected two releases with count entries"

(* a 7-node tree at fanout 2: every node's arrival reaches the root
   through its parent, one release per node comes back down, and each
   node's own part is exactly the streams it subscribes to that others
   wrote *)
let test_barrier_combining_tree () =
  let n = 7 in
  (* shard s is written by node s and subscribed by nodes s and
     (s + 3) mod n *)
  let receivers s = List.sort compare [ s; (s + 3) mod n ] in
  let queue = Queue.create () and sent = ref 0 in
  let own = Array.make n None in
  let combiners =
    Array.init n (fun node ->
        Barrier_manager.create ~node ~tree:(barrier_tree ~fanout:2 ~n) ~receivers
          ~send:(fun ~dst msg ->
            if dst <> node then incr sent;
            Queue.push (node, dst, msg) queue)
          ~on_release:(fun ~members:_ ~episode:_ clock ->
            match clock with
            | Protocol.Counts es -> own.(node) <- Some (List.sort compare es)
            | Protocol.Vector _ -> Alcotest.fail "expected counts"))
  in
  Array.iteri
    (fun node c ->
      Barrier_manager.join c ~members:[] ~episode:0 (Protocol.Counts [ (node, node, node + 1) ]))
    combiners;
  while not (Queue.is_empty queue) do
    let src, dst, msg = Queue.pop queue in
    Barrier_manager.handle combiners.(dst) ~src msg
  done;
  check_int "one arrival and one release per non-root node" (2 * (n - 1)) !sent;
  check_int "released once, at the root" 1 (Barrier_manager.episodes_released combiners.(0));
  Array.iteri
    (fun node got ->
      let writer = (node + n - 3) mod n in
      Alcotest.(check (option (list (triple int int int))))
        (Printf.sprintf "node %d's own part" node)
        (Some [ (writer, writer, writer + 1) ])
        got)
    own

(* entry mode: guarded values accumulate at the manager and ride grants *)
let test_entry_values_ride_grants () =
  let log, send = collector () in
  let m = Lock_manager.create ~n:2 ~demand:false ~send in
  Lock_manager.handle m ~src:0 (lock_request 0 "m" true);
  Lock_manager.handle m ~src:0
    (Protocol.Unlock_msg
       {
         proc = 0;
         lock = "m";
         write = true;
         vc = [| 0; 0 |];
         write_set = [ "g" ];
         values = [ ("g", 42, 123) ];
       });
  Lock_manager.handle m ~src:1 (lock_request 1 "m" true);
  let grant_values =
    List.rev (drain log) |> List.find_map (function
      | 1, Protocol.Lock_grant { values; _ } -> Some values
      | _ -> None)
  in
  match Option.get grant_values with
  | [ ("g", 42, 123) ] -> ()
  | _ -> Alcotest.fail "expected the guarded value on the grant"

let () =
  Alcotest.run "mc_dsm.managers"
    [
      ( "lock_manager",
        [
          Alcotest.test_case "write locks FIFO" `Quick test_write_lock_fifo;
          Alcotest.test_case "readers granted together" `Quick
            test_readers_granted_together;
          Alcotest.test_case "dependency clock accumulates" `Quick
            test_dep_accumulates_across_holders;
          Alcotest.test_case "demand write-sets forwarded" `Quick
            test_demand_write_sets_forwarded;
          Alcotest.test_case "error handling" `Quick test_lock_errors;
          Alcotest.test_case "independent locks" `Quick test_independent_locks;
          Alcotest.test_case "entry values ride grants" `Quick
            (fun () -> test_entry_values_ride_grants ());
        ] );
      ( "barrier_manager",
        [
          Alcotest.test_case "release on full arrival" `Quick
            test_barrier_release_on_full_arrival;
          Alcotest.test_case "interleaved episodes" `Quick
            test_barrier_interleaved_episodes;
          Alcotest.test_case "subset release" `Quick test_barrier_subset_release;
          Alcotest.test_case "count vectors (Sec. 6)" `Quick
            test_barrier_count_vectors;
          Alcotest.test_case "error handling" `Quick test_barrier_errors;
          Alcotest.test_case "combining tree at fanout 2" `Quick
            test_barrier_combining_tree;
        ] );
    ]
