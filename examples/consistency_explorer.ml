(* A tour of the consistency hierarchy through classic litmus histories,
   written in the history DSL and fed to the checkers. Shows exactly
   where PRAM, causal, mixed and sequential consistency separate
   (Sections 3 and 4 of the paper).

   Run with: dune exec examples/consistency_explorer.exe *)

module Dsl = Mc_history.Dsl
module History = Mc_history.History
module Lattice = Mc_consistency.Lattice
module Sequential = Mc_consistency.Sequential
module Commute = Mc_consistency.Commute

let verdict h =
  let sc =
    match Sequential.is_sequentially_consistent h with
    | Sequential.Consistent -> "SC"
    | Sequential.Inconsistent -> "not SC"
    | Sequential.Unknown -> "SC?"
  in
  Printf.sprintf "PRAM:%-3s causal:%-3s mixed:%-3s %s"
    (if Lattice.is_consistent h Lattice.PRAM then "yes" else "no")
    (if Lattice.is_consistent h Lattice.Causal then "yes" else "no")
    (if Lattice.is_consistent h Lattice.Mixed then "yes" else "no")
    sc

let show name description h =
  Printf.printf "%-34s %s\n" name (verdict h);
  Printf.printf "    %s\n\n" description

let () =
  print_endline "classic litmus histories under the paper's definitions:\n";

  show "store buffering (Dekker)"
    "both processes miss each other's write: allowed by causal memory, never by SC"
    (Dsl.make ~procs:2
       [ [ Dsl.w "x" 1; Dsl.rc "y" 0 ]; [ Dsl.w "y" 1; Dsl.rc "x" 0 ] ]);

  show "message passing, causal reads"
    "flag protocol: the causal read of x must see the write before the flag"
    (Dsl.make ~procs:2
       [ [ Dsl.w "x" 42; Dsl.w "flag" 1 ]; [ Dsl.rc "flag" 1; Dsl.rc "x" 42 ] ]);

  show "message passing, broken"
    "reading flag=1 but x=0 causally: rejected (the write to x is causally prior)"
    (Dsl.make ~procs:2
       [ [ Dsl.w "x" 42; Dsl.w "flag" 1 ]; [ Dsl.rc "flag" 1; Dsl.rc "x" 0 ] ]);

  show "transitive chain, PRAM reads"
    "p2 hears about y=2 from p1 but misses p0's x=1: fine for PRAM, not causal"
    (Dsl.make ~procs:3
       [
         [ Dsl.w "x" 1 ];
         [ Dsl.rp "x" 1; Dsl.w "y" 2 ];
         [ Dsl.rp "y" 2; Dsl.rp "x" 0 ];
       ]);

  show "same chain, mixed labels"
    "labelling the stale read PRAM and the fresh one causal satisfies Definition 4"
    (Dsl.make ~procs:3
       [
         [ Dsl.w "x" 1 ];
         [ Dsl.rp "x" 1; Dsl.w "y" 2 ];
         [ Dsl.rc "y" 2; Dsl.rp "x" 0 ];
       ]);

  show "write order disagreement"
    "two observers see concurrent writes in opposite orders: causal yes, SC no"
    (Dsl.make ~procs:4
       [
         [ Dsl.w "x" 1 ];
         [ Dsl.w "x" 2 ];
         [ Dsl.rc "x" 1; Dsl.rc "x" 2 ];
         [ Dsl.rc "x" 2; Dsl.rc "x" 1 ];
       ]);

  show "FIFO violation"
    "reading one writer's values out of order: not even PRAM"
    (Dsl.make ~procs:2
       [ [ Dsl.w "x" 1; Dsl.w "x" 2 ]; [ Dsl.rp "x" 2; Dsl.rp "x" 1 ] ]);

  show "critical sections"
    "lock epochs order the accesses; causal reads inside make the history SC"
    (Dsl.make ~procs:2
       [
         [ Dsl.wl ~seq:0 "m"; Dsl.w "x" 1; Dsl.wu ~seq:1 "m" ];
         [ Dsl.wl ~seq:2 "m"; Dsl.rc "x" 1; Dsl.w "x" 2; Dsl.wu ~seq:3 "m" ];
       ]);

  show "lock hand-off, PRAM read"
    "the third holder misses the first holder's write: PRAM sees only the previous holder (Sec. 6)"
    (Dsl.make ~procs:3
       [
         [ Dsl.wl ~seq:0 "m"; Dsl.w "x" 1; Dsl.wu ~seq:1 "m" ];
         [ Dsl.wl ~seq:2 "m"; Dsl.w "y" 2; Dsl.wu ~seq:3 "m" ];
         [ Dsl.wl ~seq:4 "m"; Dsl.rp "x" 0; Dsl.wu ~seq:5 "m" ];
       ]);

  show "barrier phases"
    "a pre-barrier write is visible to every post-barrier read, even PRAM ones"
    (Dsl.make ~procs:2
       [ [ Dsl.w "x" 1; Dsl.bar 0 ]; [ Dsl.bar 0; Dsl.rp "x" 1 ] ]);

  (* Theorem 1 in action *)
  let commuting =
    Dsl.make ~procs:2
      [ [ Dsl.w "a" 1; Dsl.rc "a" 1 ]; [ Dsl.w "b" 2; Dsl.rc "b" 2 ] ]
  in
  let report = Commute.theorem1_report commuting in
  Printf.printf
    "Theorem 1 check on a disjoint-variable history: %d non-commuting unrelated\n\
     pairs, %d non-causal reads -> the theorem applies, so it is sequentially\n\
     consistent without running the (exponential) SC search.\n"
    (List.length report.Commute.non_commuting_pairs)
    (List.length report.Commute.non_causal_reads)
