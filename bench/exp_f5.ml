(* EXP-F5: sparse Cholesky (Fig. 5), locks vs counter objects *)

open Harness

let matrix = col "matrix"
let nnz = col "nnz(L)"
let variant = col "variant"
let exact = col "exact"
let sim = col "sim time"
let msgs = col "msgs"
let lock_wait = col "lock wait"

let run ~quick =
  let matrices =
    (("random n=24 d=0.15", Sparse.generate ~seed:11 ~n:24 ~density:0.15)
    ::
    (if quick then []
     else
       [
         ("random n=32 d=0.25", Sparse.generate ~seed:12 ~n:32 ~density:0.25);
         ("arrow n=32 bw=3", Sparse.arrow ~seed:13 ~n:32 ~bandwidth:3);
       ]))
  in
  let procs = 4 in
  let point (name, m) =
    let lref = Sparse.factor_reference m in
    let run label v =
      let res, s = run_mixed ~procs (fun _rt spawn -> Cholesky.launch ~spawn ~procs ~variant:v m) in
      ( s,
        row
          [ matrix, Text name; nnz, Int (Sparse.nnz m); variant, Text label;
            exact, Flag ((Option.get !res).Cholesky.l = lref); sim, Float s.time;
            msgs, Int s.messages; lock_wait, Float (mean_wait s "write_lock") ] )
    in
    let s_lock, r_lock = run "locks (Fig. 5)" Cholesky.Lock_based in
    let s_ctr, r_ctr = run "counter objects" Cholesky.Counter_based in
    [ r_lock; r_ctr;
      derived
        [ variant, Text "-> counter speedup"; sim, Ratio (s_lock.time /. s_ctr.time);
          msgs, Ratio (float_of_int s_lock.messages /. float_of_int s_ctr.messages) ] ]
  in
  {
    tables =
      [ table ~title:"EXP-F5: sparse Cholesky (Fig. 5), lock-based vs counter objects"
          [ matrix; nnz; variant; exact; sim; msgs; lock_wait ]
          (List.concat_map point matrices) ];
    note =
      "paper claim (Sec. 7): the counter-object algorithm outperforms the lock-based\n\
       algorithm significantly.";
    json = [];
  }

let claims =
  let pairs = pairwise variant "locks (Fig. 5)" "counter objects" in
  [
    claim ~section:"Sec. 7" "counter objects are at least 2x faster in sim time on every matrix"
      (fun rows -> pairs rows (fun l c -> num l sim >= 2. *. num c sim));
    claim ~section:"Sec. 7" "counter objects send fewer messages on every matrix" (fun rows ->
        pairs rows (fun l c -> num c msgs < num l msgs));
    claim ~section:"Sec. 7" "both variants compute the exact factor" (every exact);
  ]

let t = { id = "f5"; name = "EXP-F5"; run; claims }
