(* Tests for mc_util: priority queue, RNG, relations, statistics. *)

module Pqueue = Mc_util.Pqueue
module Rng = Mc_util.Rng
module Relation = Mc_util.Relation
module Stats = Mc_util.Stats

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Pqueue                                                              *)
(* ------------------------------------------------------------------ *)

let test_pqueue_order () =
  let q = Pqueue.create () in
  List.iter
    (fun (p, v) -> Pqueue.add q ~priority:p v)
    [ (3., "c"); (1., "a"); (2., "b"); (0.5, "z") ];
  let order = ref [] in
  Pqueue.drain q (fun _ v -> order := v :: !order);
  Alcotest.(check (list string)) "priority order" [ "z"; "a"; "b"; "c" ]
    (List.rev !order)

let test_pqueue_fifo_ties () =
  let q = Pqueue.create () in
  List.iter (fun v -> Pqueue.add q ~priority:1.0 v) [ 1; 2; 3; 4; 5 ];
  let order = ref [] in
  Pqueue.drain q (fun _ v -> order := v :: !order);
  Alcotest.(check (list int)) "fifo among equal priorities" [ 1; 2; 3; 4; 5 ]
    (List.rev !order)

let test_pqueue_empty () =
  let q = Pqueue.create () in
  check "empty" true (Pqueue.is_empty q);
  check_int "length" 0 (Pqueue.length q);
  (match Pqueue.peek_min q with
  | None -> ()
  | Some _ -> Alcotest.fail "peek of empty queue");
  Alcotest.check_raises "pop of empty" Not_found (fun () ->
      ignore (Pqueue.pop_min q))

let test_pqueue_interleaved () =
  let q = Pqueue.create () in
  Pqueue.add q ~priority:5. 5;
  Pqueue.add q ~priority:1. 1;
  let _, v = Pqueue.pop_min q in
  check_int "first pop" 1 v;
  Pqueue.add q ~priority:0.5 0;
  Pqueue.add q ~priority:10. 10;
  let _, v = Pqueue.pop_min q in
  check_int "second pop" 0 v;
  let _, v = Pqueue.pop_min q in
  check_int "third pop" 5 v;
  let _, v = Pqueue.pop_min q in
  check_int "fourth pop" 10 v;
  check "drained" true (Pqueue.is_empty q)

let test_pqueue_clear () =
  let q = Pqueue.create () in
  for i = 0 to 9 do
    Pqueue.add q ~priority:(float_of_int i) i
  done;
  check_int "ten elements" 10 (Pqueue.length q);
  Pqueue.clear q;
  check "cleared" true (Pqueue.is_empty q)

let pqueue_heap_property =
  QCheck.Test.make ~name:"pqueue pops in nondecreasing priority order" ~count:200
    QCheck.(list (pair (float_range 0. 1000.) small_int))
    (fun entries ->
      let q = Pqueue.create () in
      List.iter (fun (p, v) -> Pqueue.add q ~priority:p v) entries;
      let last = ref neg_infinity in
      let sorted = ref true in
      Pqueue.drain q (fun p _ ->
          if p < !last then sorted := false;
          last := p);
      !sorted)

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.make 42 and b = Rng.make 42 in
  for _ = 1 to 100 do
    check "same stream" true (Rng.bits64 a = Rng.bits64 b)
  done

let test_rng_split_independent () =
  let a = Rng.make 42 in
  let c = Rng.split a in
  let x = Rng.bits64 a and y = Rng.bits64 c in
  check "split streams differ" true (x <> y)

let test_rng_bounds () =
  let rng = Rng.make 7 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 10 in
    check "int in bounds" true (v >= 0 && v < 10);
    let f = Rng.float rng 3.0 in
    check "float in bounds" true (f >= 0.0 && f < 3.0);
    let k = Rng.int_in rng (-5) 5 in
    check "int_in bounds" true (k >= -5 && k <= 5);
    let g = Rng.float_in rng 2.0 4.0 in
    check "float_in bounds" true (g >= 2.0 && g < 4.0)
  done

let test_rng_shuffle_permutation () =
  let rng = Rng.make 3 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "a permutation" (Array.init 50 Fun.id) sorted

let test_rng_uniformish () =
  (* crude balance check: each bucket of 10 gets a reasonable share *)
  let rng = Rng.make 1234 in
  let buckets = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iter (fun c -> check "bucket within 30% of mean" true (c > 700 && c < 1300)) buckets

(* ------------------------------------------------------------------ *)
(* Relation                                                            *)
(* ------------------------------------------------------------------ *)

let test_relation_basic () =
  let r = Relation.create 4 in
  check "initially empty" false (Relation.mem r 0 1);
  Relation.add r 0 1;
  Relation.add r 1 2;
  check "mem added" true (Relation.mem r 0 1);
  check "not transitive yet" false (Relation.mem r 0 2);
  check_int "cardinal" 2 (Relation.cardinal r);
  Alcotest.(check (list int)) "successors" [ 1 ] (Relation.successors r 0);
  Alcotest.(check (list int)) "predecessors" [ 1 ] (Relation.predecessors r 2)

let test_relation_closure () =
  let r = Relation.create 5 in
  Relation.add r 0 1;
  Relation.add r 1 2;
  Relation.add r 2 3;
  let c = Relation.transitive_closure r in
  check "0 reaches 3" true (Relation.mem c 0 3);
  check "3 does not reach 0" false (Relation.mem c 3 0);
  check "4 isolated" false (Relation.mem c 4 0);
  check "original untouched" false (Relation.mem r 0 3)

let test_relation_reduction () =
  let r = Relation.create 4 in
  Relation.add r 0 1;
  Relation.add r 1 2;
  Relation.add r 0 2;
  (* redundant *)
  let red = Relation.transitive_reduction r in
  check "redundant edge removed" false (Relation.mem red 0 2);
  check "chain kept" true (Relation.mem red 0 1 && Relation.mem red 1 2);
  check "same closure" true
    (Relation.equal
       (Relation.transitive_closure red)
       (Relation.transitive_closure r))

let test_relation_cycles () =
  let r = Relation.create 3 in
  Relation.add r 0 1;
  Relation.add r 1 0;
  check "cyclic" false (Relation.is_acyclic r);
  let ok = Relation.create 3 in
  Relation.add ok 0 1;
  check "acyclic" true (Relation.is_acyclic ok);
  let self = Relation.create 2 in
  Relation.add self 1 1;
  check "self-loop is a cycle" false (Relation.is_acyclic self)

let test_relation_topo () =
  let r = Relation.create 4 in
  Relation.add r 2 0;
  Relation.add r 0 1;
  Relation.add r 0 3;
  let order = Relation.topological_order r in
  let pos x = Option.get (List.find_index (Int.equal x) order) in
  check "2 before 0" true (pos 2 < pos 0);
  check "0 before 1" true (pos 0 < pos 1);
  check "0 before 3" true (pos 0 < pos 3);
  check_int "all nodes" 4 (List.length order)

let test_relation_union_subset_restrict () =
  let a = Relation.create 3 and b = Relation.create 3 in
  Relation.add a 0 1;
  Relation.add b 1 2;
  let u = Relation.union a b in
  check "union has both" true (Relation.mem u 0 1 && Relation.mem u 1 2);
  check "a subset of union" true (Relation.subset a u);
  check "union not subset of a" false (Relation.subset u a);
  let restricted = Relation.restrict u (fun i -> i <> 1) in
  check_int "restrict drops edges touching 1" 0 (Relation.cardinal restricted)

let relation_closure_idempotent =
  QCheck.Test.make ~name:"transitive closure is idempotent" ~count:100
    QCheck.(list (pair (int_bound 9) (int_bound 9)))
    (fun edges ->
      let r = Relation.create 10 in
      List.iter (fun (i, j) -> Relation.add r i j) edges;
      let c1 = Relation.transitive_closure r in
      let c2 = Relation.transitive_closure c1 in
      Relation.equal c1 c2)

let relation_reduction_preserves_closure =
  QCheck.Test.make ~name:"transitive reduction preserves the closure" ~count:100
    QCheck.(list (pair (int_bound 7) (int_bound 7)))
    (fun edges ->
      (* build an acyclic relation by orienting edges low -> high *)
      let r = Relation.create 8 in
      List.iter
        (fun (i, j) -> if i < j then Relation.add r i j)
        edges;
      let red = Relation.transitive_reduction r in
      Relation.equal
        (Relation.transitive_closure red)
        (Relation.transitive_closure r)
      && Relation.subset red r)

(* The closure kernel and the word-level scans against per-bit loops.
   Sizes straddle the 62-bit word boundary; the edge lists give dense
   graphs with cycles and sparse ones without, plus planted self-loops
   and isolated elements. *)
let random_relation_gen =
  QCheck.Gen.(
    oneofl [ 1; 61; 62; 63; 124; 125 ] >>= fun n ->
    let node = int_bound (n - 1) in
    int_bound (3 * n) >>= fun m ->
    list_repeat m (pair node node) >>= fun edges ->
    list_size (int_bound 3) node >>= fun loops ->
    list_size (int_bound 5) node >>= fun isolated ->
    array_repeat n bool >>= fun keep ->
    return (n, edges, loops, isolated, keep))

let random_relation_arb =
  QCheck.make
    ~print:(fun (n, edges, loops, isolated, _) ->
      Printf.sprintf "n=%d edges=[%s] loops=[%s] isolated=[%s]" n
        (String.concat "; " (List.map (fun (i, j) -> Printf.sprintf "%d,%d" i j) edges))
        (String.concat "; " (List.map string_of_int loops))
        (String.concat "; " (List.map string_of_int isolated)))
    random_relation_gen

let relation_of (n, edges, loops, isolated, _) =
  let r = Relation.create n in
  let free i = not (List.mem i isolated) in
  List.iter (fun (i, j) -> if free i && free j then Relation.add r i j) edges;
  List.iter (fun i -> if free i then Relation.add r i i) loops;
  r

let pairs_per_bit r =
  let n = Relation.size r in
  List.concat
    (List.init n (fun i ->
         List.filter_map
           (fun j -> if Relation.mem r i j then Some (i, j) else None)
           (List.init n Fun.id)))

let closure_matches_warshall =
  QCheck.Test.make ~name:"closure = Warshall across the word boundary" ~count:300
    random_relation_arb (fun input ->
      let r = relation_of input in
      Relation.equal (Relation.transitive_closure r) (Oracle.warshall r))

let scans_match_per_bit_loops =
  QCheck.Test.make ~name:"fold/successors/predecessors/restrict = per-bit loops"
    ~count:300 random_relation_arb (fun ((n, _, _, _, keep) as input) ->
      let r = relation_of input in
      let ids = List.init n Fun.id in
      let restricted = Relation.create n in
      List.iter
        (fun (i, j) -> if keep.(i) && keep.(j) then Relation.add restricted i j)
        (pairs_per_bit r);
      List.rev (Relation.fold r (fun acc i j -> (i, j) :: acc) []) = pairs_per_bit r
      && List.for_all
           (fun i ->
             Relation.successors r i = List.filter (fun j -> Relation.mem r i j) ids
             && Relation.predecessors r i = List.filter (fun j -> Relation.mem r j i) ids)
           ids
      && Relation.equal (Relation.restrict r (fun i -> keep.(i))) restricted)

let test_relation_closure_cycles () =
  (* a 3-cycle reaching a tail, a self-loop, and an acyclic singleton *)
  let r = Relation.create 6 in
  List.iter (fun (i, j) -> Relation.add r i j) [ (0, 1); (1, 2); (2, 0); (2, 3); (4, 4) ];
  let c = Relation.transitive_closure r in
  check "cycle members reach themselves" true
    (List.for_all (fun i -> Relation.mem c i i) [ 0; 1; 2 ]);
  check "cycle reaches the tail" true (Relation.mem c 1 3);
  check "the tail does not reach itself" false (Relation.mem c 3 3);
  check "self-loop kept" true (Relation.mem c 4 4);
  check "isolated element reaches nothing" true (Relation.successors c 5 = []);
  check "equals Warshall" true (Relation.equal c (Oracle.warshall r))

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_summary () =
  let s = Stats.Summary.create () in
  List.iter (Stats.Summary.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  check_int "count" 4 (Stats.Summary.count s);
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Stats.Summary.mean s);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Stats.Summary.min s);
  Alcotest.(check (float 1e-9)) "max" 4.0 (Stats.Summary.max s);
  Alcotest.(check (float 1e-9)) "total" 10.0 (Stats.Summary.total s);
  Alcotest.(check (float 1e-6)) "stddev" 1.2909944487 (Stats.Summary.stddev s)

let test_summary_empty () =
  let s = Stats.Summary.create () in
  Alcotest.(check (float 0.)) "mean of empty" 0. (Stats.Summary.mean s);
  Alcotest.(check (float 0.)) "stddev of empty" 0. (Stats.Summary.stddev s)

let test_counters () =
  let c = Stats.Counters.create () in
  Stats.Counters.incr c "a";
  Stats.Counters.add c "b" 5;
  Stats.Counters.incr c "a";
  check_int "a" 2 (Stats.Counters.get c "a");
  check_int "b" 5 (Stats.Counters.get c "b");
  check_int "missing" 0 (Stats.Counters.get c "zz");
  Alcotest.(check (list (pair string int)))
    "to_list sorted"
    [ ("a", 2); ("b", 5) ]
    (Stats.Counters.to_list c);
  let d = Stats.Counters.create () in
  Stats.Counters.add d "a" 10;
  Stats.Counters.merge c d;
  check_int "merged" 12 (Stats.Counters.get c "a")

(* ------------------------------------------------------------------ *)
(* Tablefmt                                                            *)
(* ------------------------------------------------------------------ *)

let test_tablefmt () =
  let s =
    Mc_util.Tablefmt.render ~headers:[ "name"; "value" ]
      ~aligns:[ Mc_util.Tablefmt.Left; Mc_util.Tablefmt.Right ]
      [ [ "x"; "1" ]; [ "longer"; "23" ] ]
  in
  check "contains header" true
    (String.length s > 0 && String.sub s 0 4 = "name");
  (* rows padded: every line has same length *)
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> l <> "") in
  check_int "four lines" 4 (List.length lines)

let test_fmt_helpers () =
  Alcotest.(check string) "integral float" "42" (Mc_util.Tablefmt.fmt_float 42.0);
  Alcotest.(check string) "ratio" "2.50x" (Mc_util.Tablefmt.fmt_ratio 2.5)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "mc_util"
    [
      ( "pqueue",
        [
          Alcotest.test_case "priority order" `Quick test_pqueue_order;
          Alcotest.test_case "fifo ties" `Quick test_pqueue_fifo_ties;
          Alcotest.test_case "empty queue" `Quick test_pqueue_empty;
          Alcotest.test_case "interleaved add/pop" `Quick test_pqueue_interleaved;
          Alcotest.test_case "clear" `Quick test_pqueue_clear;
          qt pqueue_heap_property;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "shuffle is a permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "roughly uniform" `Quick test_rng_uniformish;
        ] );
      ( "relation",
        [
          Alcotest.test_case "basic membership" `Quick test_relation_basic;
          Alcotest.test_case "transitive closure" `Quick test_relation_closure;
          Alcotest.test_case "transitive reduction" `Quick test_relation_reduction;
          Alcotest.test_case "cycle detection" `Quick test_relation_cycles;
          Alcotest.test_case "topological order" `Quick test_relation_topo;
          Alcotest.test_case "union/subset/restrict" `Quick test_relation_union_subset_restrict;
          Alcotest.test_case "closure on cycles" `Quick test_relation_closure_cycles;
          qt relation_closure_idempotent;
          qt relation_reduction_preserves_closure;
          qt closure_matches_warshall;
          qt scans_match_per_bit_loops;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary statistics" `Quick test_summary;
          Alcotest.test_case "empty summary" `Quick test_summary_empty;
          Alcotest.test_case "counters" `Quick test_counters;
        ] );
      ( "tablefmt",
        [
          Alcotest.test_case "render" `Quick test_tablefmt;
          Alcotest.test_case "formatting helpers" `Quick test_fmt_helpers;
        ] );
    ]
