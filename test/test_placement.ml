(* Unit and property tests for Mc_placement.Placement: the loc -> shard
   policies, the subscription registry, the home function, the
   per-(shard, root) dissemination trees, and the access-pattern
   placement of the Section-5.2 field computation. *)

module P = Mc_placement.Placement
module Rng = Mc_util.Rng
module Em = Mc_apps.Em_field

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_ints = Alcotest.(check (list int))

(* ------------------------------------------------------------------ *)
(* Policies                                                            *)
(* ------------------------------------------------------------------ *)

let test_range_policy () =
  let pl = P.create ~shards:10 ~policy:(P.Range { objects = 100 }) () in
  (* per-shard span is ceil(100/10) = 10 *)
  check_int "first id" 0 (P.shard_of_loc pl "s:0");
  check_int "last of shard 0" 0 (P.shard_of_loc pl "s:9");
  check_int "first of shard 1" 1 (P.shard_of_loc pl "s:10");
  check_int "last id" 9 (P.shard_of_loc pl "s:99");
  check_int "overflow ids clamp to the last shard" 9 (P.shard_of_loc pl "s:150");
  (* locations without a numeric suffix fall back to hashing *)
  let h = P.shard_of_loc pl "done" in
  check "hash fallback in range" true (h >= 0 && h < 10);
  check_int "hash fallback deterministic" h (P.shard_of_loc pl "done")

let test_hash_policy () =
  let pl = P.create ~shards:7 ~policy:P.Hash () in
  List.iter
    (fun loc ->
      let s = P.shard_of_loc pl loc in
      check (loc ^ " in range") true (s >= 0 && s < 7);
      check_int (loc ^ " deterministic") s (P.shard_of_loc pl loc))
    [ "x:0"; "x:1"; "y"; "done"; "cnt:42" ]

let test_explicit_policy () =
  let pl = P.create ~shards:3 ~policy:(P.Explicit (fun loc -> String.length loc - 1)) () in
  check_int "map followed" 0 (P.shard_of_loc pl "a");
  check_int "map followed, last shard" 2 (P.shard_of_loc pl "abc");
  let raises loc =
    match P.shard_of_loc pl loc with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  check "shard past the end raises" true (raises "abcd");
  check "negative shard raises" true (raises "")

let test_policy_strings () =
  (* the textual form names the constructor; a range's object count is
     supplied separately (on the CLI, by --objects); an explicit map has
     no textual form *)
  List.iter
    (fun p ->
      match P.policy_of_string (P.policy_to_string p) with
      | Ok p' ->
        Alcotest.(check string) "roundtrip" (P.policy_to_string p) (P.policy_to_string p')
      | Error e -> Alcotest.failf "roundtrip failed: %s" e)
    [ P.Hash; P.Range { objects = 64 } ];
  Alcotest.(check string) "explicit named" "explicit"
    (P.policy_to_string (P.Explicit (fun _ -> 0)));
  check "explicit not parsed" true (Result.is_error (P.policy_of_string "explicit"));
  check "garbage rejected" true
    (match P.policy_of_string "nonsense" with Error _ -> true | Ok _ -> false)

(* ------------------------------------------------------------------ *)
(* Subscriptions and home                                              *)
(* ------------------------------------------------------------------ *)

let test_subscriptions () =
  let pl = P.create ~shards:4 ~policy:P.Hash () in
  check_ints "initially empty" [] (P.subscribers pl ~shard:2);
  check "no home" true (P.home pl ~shard:2 = None);
  P.subscribe pl ~node:5 ~shard:2;
  P.subscribe pl ~node:1 ~shard:2;
  P.subscribe pl ~node:3 ~shard:2;
  P.subscribe pl ~node:1 ~shard:2 (* duplicate *);
  check_ints "sorted, deduplicated" [ 1; 3; 5 ] (P.subscribers pl ~shard:2);
  check "home is least subscriber" true (P.home pl ~shard:2 = Some 1);
  check "is_subscribed" true (P.is_subscribed pl ~node:3 ~shard:2);
  P.subscribe pl ~node:3 ~shard:0;
  check_ints "per-node view" [ 0; 2 ] (P.subscriptions pl ~node:3);
  P.unsubscribe pl ~node:1 ~shard:2;
  check_ints "after unsubscribe" [ 3; 5 ] (P.subscribers pl ~shard:2);
  check "home recomputed" true (P.home pl ~shard:2 = Some 3);
  check "is_subscribed off" false (P.is_subscribed pl ~node:1 ~shard:2)

(* ------------------------------------------------------------------ *)
(* Dissemination trees                                                 *)
(* ------------------------------------------------------------------ *)

(* Walk the tree from [root] and collect every reached node. *)
let reachable pl ~shard ~root =
  let seen = Hashtbl.create 16 in
  let rec go node =
    if Hashtbl.mem seen node then
      Alcotest.failf "node %d reached twice (shard %d root %d)" node shard root;
    Hashtbl.add seen node ();
    List.iter go (P.children pl ~shard ~root ~node)
  in
  go root;
  List.sort compare (Hashtbl.fold (fun n () acc -> n :: acc) seen [])

let test_tree_covers_subscribers () =
  for seed = 1 to 30 do
    let rng = Rng.make (9100 + seed) in
    let fanout = 1 + Rng.int rng 4 in
    let pl = P.create ~shards:3 ~policy:P.Hash ~fanout () in
    let n = 1 + Rng.int rng 12 in
    for _ = 1 to n do
      P.subscribe pl ~node:(Rng.int rng 40) ~shard:1
    done;
    let subs = P.subscribers pl ~shard:1 in
    List.iter
      (fun root ->
        let name what =
          Printf.sprintf "seed %d fanout %d root %d: %s" seed fanout root what
        in
        check_ints (name "tree spans the subscriber set") subs
          (reachable pl ~shard:1 ~root);
        List.iter
          (fun node ->
            let kids = P.children pl ~shard:1 ~root ~node in
            check (name "fanout bound") true (List.length kids <= fanout);
            check (name "deterministic") true
              (kids = P.children pl ~shard:1 ~root ~node);
            check (name "root is nobody's child") true
              (not (List.mem root kids)))
          subs)
      subs
  done

let test_tree_follows_churn () =
  let pl = P.create ~shards:2 ~policy:P.Hash ~fanout:2 () in
  List.iter (fun n -> P.subscribe pl ~node:n ~shard:0) [ 0; 1; 2; 3; 4 ];
  check_ints "full set" [ 0; 1; 2; 3; 4 ] (reachable pl ~shard:0 ~root:2);
  P.unsubscribe pl ~node:3 ~shard:0;
  (* memoized trees must be invalidated by the membership change *)
  check_ints "after unsubscribe" [ 0; 1; 2; 4 ] (reachable pl ~shard:0 ~root:2);
  P.subscribe pl ~node:7 ~shard:0;
  check_ints "after resubscribe" [ 0; 1; 2; 4; 7 ] (reachable pl ~shard:0 ~root:2)

(* ------------------------------------------------------------------ *)
(* Access-pattern routing                                              *)
(* ------------------------------------------------------------------ *)

(* Run the field computation under its own placement, then read the
   access pattern off the recorded history: every location's shard must
   be subscribed by exactly the processes that wrote or read it — its
   writer and its one reader. *)
let test_em_field_placement () =
  let module Config = Mc_dsm.Config in
  let module Runtime = Mc_dsm.Runtime in
  let procs = 4 in
  let params = { Em.rows = 8; cols = 3; steps = 2; seed = 1 } in
  let pl = Em.placement ~procs in
  check_int "three shards per strip" (3 * procs) (P.shards pl);
  let rt =
    Runtime.create (Mc_sim.Engine.create ())
      {
        (Config.default ~procs) with
        record = true;
        timestamped_updates = false;
        placement = Some pl;
      }
  in
  let res = Em.launch ~spawn:(Mc_dsm.Api.spawn rt) ~procs params in
  ignore (Runtime.run rt);
  check_int "exact" (Em.reference ~procs params).Em.checksum
    (Option.get !res).Em.checksum;
  check_int "no fetches" 0 (Runtime.fetch_count rt);
  let users = Hashtbl.create 64 in
  Array.iter
    (fun (o : Mc_history.Op.t) ->
      List.iter
        (Option.iter (fun (loc, _) ->
             let seen = Option.value ~default:[] (Hashtbl.find_opt users loc) in
             Hashtbl.replace users loc (o.proc :: seen)))
        [ Mc_history.Op.writes_value o; Mc_history.Op.reads_value o ])
    (Mc_history.History.ops (Runtime.history rt));
  check "every strip publishes" true (Hashtbl.length users >= 2 * procs);
  Hashtbl.iter
    (fun loc procs ->
      check_ints (loc ^ ": subscribers are its writer and reader")
        (List.sort_uniq compare procs)
        (P.subscribers pl ~shard:(P.shard_of_loc pl loc)))
    users

let () =
  Alcotest.run "placement"
    [
      ( "policy",
        [
          Alcotest.test_case "range" `Quick test_range_policy;
          Alcotest.test_case "hash" `Quick test_hash_policy;
          Alcotest.test_case "explicit" `Quick test_explicit_policy;
          Alcotest.test_case "strings" `Quick test_policy_strings;
        ] );
      ( "subscriptions",
        [ Alcotest.test_case "registry and home" `Quick test_subscriptions ] );
      ( "trees",
        [
          Alcotest.test_case "random sets are spanned" `Quick
            test_tree_covers_subscribers;
          Alcotest.test_case "churn invalidates memos" `Quick
            test_tree_follows_churn;
        ] );
      ( "access-pattern routing",
        [ Alcotest.test_case "em field placement" `Quick test_em_field_placement ] );
    ]
