(* Bit-matrix representation: row i is a bitset of successors of i, packed
   into an int array with [word_bits] bits per word. *)

let word_bits = 62

type t = { n : int; words : int; rows : int array array }

let create n =
  let words = if n = 0 then 0 else ((n - 1) / word_bits) + 1 in
  { n; words; rows = Array.init n (fun _ -> Array.make words 0) }

let size t = t.n

let check t i j =
  if i < 0 || i >= t.n || j < 0 || j >= t.n then
    invalid_arg (Printf.sprintf "Relation: pair (%d, %d) out of range 0..%d" i j (t.n - 1))

let add t i j =
  check t i j;
  let w = j / word_bits and b = j mod word_bits in
  t.rows.(i).(w) <- t.rows.(i).(w) lor (1 lsl b)

let mem t i j =
  check t i j;
  let w = j / word_bits and b = j mod word_bits in
  t.rows.(i).(w) land (1 lsl b) <> 0

let copy t =
  { t with rows = Array.map Array.copy t.rows }

let or_row dst src words =
  for w = 0 to words - 1 do
    dst.(w) <- dst.(w) lor src.(w)
  done

let union_into dst src =
  if dst.n <> src.n then invalid_arg "Relation.union: size mismatch";
  for i = 0 to dst.n - 1 do
    or_row dst.rows.(i) src.rows.(i) dst.words
  done

let union a b =
  let r = copy a in
  union_into r b;
  r

let union_row t ~src ~dst =
  check t src dst;
  or_row t.rows.(dst) t.rows.(src) t.words

(* Index of the lowest set bit of a nonzero word. *)
let lowest_bit x =
  let x = ref (x land -x) and b = ref 0 in
  if !x land 0xFFFFFFFF = 0 then (x := !x lsr 32; b := 32);
  if !x land 0xFFFF = 0 then (x := !x lsr 16; b := !b + 16);
  if !x land 0xFF = 0 then (x := !x lsr 8; b := !b + 8);
  if !x land 0xF = 0 then (x := !x lsr 4; b := !b + 4);
  if !x land 0x3 = 0 then (x := !x lsr 2; b := !b + 2);
  if !x land 0x1 = 0 then b := !b + 1;
  !b

(* [iter_row f row words] calls [f j] for every bit [j] of [row], ascending. *)
let iter_row f row words =
  for w = 0 to words - 1 do
    let x = ref row.(w) in
    while !x <> 0 do
      f ((w * word_bits) + lowest_bit !x);
      x := !x land (!x - 1)
    done
  done

(* Closure by SCC condensation. An iterative Tarjan pass over the set bits
   finishes strongly connected components sinks first, so when a component
   is finished every successor outside it already has its final row. The
   component's row is the union of its members' successors and of their
   rows. A successor whose bit is already in the accumulated row needs no
   work (its row was folded in with it, or it is a member of the
   component), so covered successors are masked out a word at a time.
   The DFS likewise masks out successors whose component is finished:
   they cannot change a low-link, and every other visited successor is
   on the Tarjan stack. Members of a cyclic component (two or more
   members, or a self-loop) reach each other and themselves; any other
   element does not reach itself. *)
let transitive_closure t =
  let n = t.n and words = t.words in
  let rows = Array.make n [||] in
  let index = Array.make n (-1) and low = Array.make n 0 in
  let finished = Array.make words 0 in
  let stack = Array.make n 0 and sp = ref 0 and next_index = ref 0 in
  (* DFS frames: vertex, current word of its row, bits of that word not
     yet visited *)
  let frame_v = Array.make n 0 and frame_w = Array.make n 0 in
  let frame_bits = Array.make n 0 and depth = ref 0 in
  let push v =
    index.(v) <- !next_index;
    low.(v) <- !next_index;
    incr next_index;
    stack.(!sp) <- v;
    incr sp;
    frame_v.(!depth) <- v;
    frame_w.(!depth) <- 0;
    frame_bits.(!depth) <- t.rows.(v).(0);
    incr depth
  in
  let finish root =
    let top = !sp in
    let base = ref (top - 1) in
    while stack.(!base) <> root do
      decr base
    done;
    let base = !base in
    sp := base;
    let acc = Array.make words 0 in
    let cyclic = top - base > 1 || mem t root root in
    for k = base to top - 1 do
      let v = stack.(k) in
      let w = v / word_bits and bit = 1 lsl (v mod word_bits) in
      finished.(w) <- finished.(w) lor bit;
      if cyclic then acc.(w) <- acc.(w) lor bit
    done;
    for k = base to top - 1 do
      let src = t.rows.(stack.(k)) in
      for w = 0 to words - 1 do
        let x = ref (src.(w) land lnot acc.(w)) in
        while !x <> 0 do
          or_row acc rows.((w * word_bits) + lowest_bit !x) words;
          acc.(w) <- acc.(w) lor (!x land - !x);
          x := !x land lnot acc.(w)
        done
      done
    done;
    rows.(root) <- acc;
    for k = base to top - 1 do
      let v = stack.(k) in
      if v <> root then rows.(v) <- Array.copy acc
    done
  in
  for root = 0 to n - 1 do
    if index.(root) < 0 then begin
      push root;
      while !depth > 0 do
        let d = !depth - 1 in
        let v = frame_v.(d) in
        let bits = frame_bits.(d) land lnot finished.(frame_w.(d)) in
        if bits <> 0 then begin
          frame_bits.(d) <- bits land (bits - 1);
          let u = (frame_w.(d) * word_bits) + lowest_bit bits in
          if index.(u) < 0 then push u
          else if index.(u) < low.(v) then low.(v) <- index.(u)
        end
        else if frame_w.(d) + 1 < words then begin
          frame_w.(d) <- frame_w.(d) + 1;
          frame_bits.(d) <- t.rows.(v).(frame_w.(d))
        end
        else begin
          depth := d;
          if d > 0 then begin
            let parent = frame_v.(d - 1) in
            if low.(v) < low.(parent) then low.(parent) <- low.(v)
          end;
          if low.(v) = index.(v) then finish v
        end
      done
    end
  done;
  { n; words; rows }

let successors t i =
  check t i i;
  let acc = ref [] in
  iter_row (fun j -> acc := j :: !acc) t.rows.(i) t.words;
  List.rev !acc

let predecessors t j =
  check t j j;
  let w = j / word_bits and bit = 1 lsl (j mod word_bits) in
  let acc = ref [] in
  for i = t.n - 1 downto 0 do
    if t.rows.(i).(w) land bit <> 0 then acc := i :: !acc
  done;
  !acc

let fold t f init =
  let acc = ref init in
  for i = 0 to t.n - 1 do
    iter_row (fun j -> acc := f !acc i j) t.rows.(i) t.words
  done;
  !acc

let cardinal t =
  let count = ref 0 in
  for i = 0 to t.n - 1 do
    for w = 0 to t.words - 1 do
      (* popcount by Kernighan's loop; rows are sparse in practice *)
      let x = ref t.rows.(i).(w) in
      while !x <> 0 do
        x := !x land (!x - 1);
        incr count
      done
    done
  done;
  !count

let equal a b =
  a.n = b.n
  && (let ok = ref true in
      for i = 0 to a.n - 1 do
        for w = 0 to a.words - 1 do
          if a.rows.(i).(w) <> b.rows.(i).(w) then ok := false
        done
      done;
      !ok)

let subset a b =
  a.n = b.n
  && (let ok = ref true in
      for i = 0 to a.n - 1 do
        for w = 0 to a.words - 1 do
          if a.rows.(i).(w) land lnot b.rows.(i).(w) <> 0 then ok := false
        done
      done;
      !ok)

(* [keep] is asked once per element; kept rows are masked word by word *)
let restrict t keep =
  let mask = Array.make t.words 0 in
  for i = 0 to t.n - 1 do
    if keep i then
      mask.(i / word_bits) <- mask.(i / word_bits) lor (1 lsl (i mod word_bits))
  done;
  let r = create t.n in
  for i = 0 to t.n - 1 do
    if mask.(i / word_bits) land (1 lsl (i mod word_bits)) <> 0 then
      let src = t.rows.(i) and dst = r.rows.(i) in
      for w = 0 to t.words - 1 do
        dst.(w) <- src.(w) land mask.(w)
      done
  done;
  r
let is_acyclic t =
  (* Kahn's algorithm: repeatedly remove zero-in-degree nodes. *)
  let indeg = Array.make t.n 0 in
  for i = 0 to t.n - 1 do
    List.iter (fun j -> indeg.(j) <- indeg.(j) + 1) (successors t i)
  done;
  let stack = ref [] in
  for i = t.n - 1 downto 0 do
    if indeg.(i) = 0 then stack := i :: !stack
  done;
  let removed = ref 0 in
  let rec loop () =
    match !stack with
    | [] -> ()
    | i :: rest ->
      stack := rest;
      incr removed;
      let f j =
        indeg.(j) <- indeg.(j) - 1;
        if indeg.(j) = 0 then stack := j :: !stack
      in
      List.iter f (successors t i);
      loop ()
  in
  loop ();
  !removed = t.n

let topological_order t =
  let indeg = Array.make t.n 0 in
  for i = 0 to t.n - 1 do
    List.iter (fun j -> if j <> i then indeg.(j) <- indeg.(j) + 1) (successors t i)
  done;
  (* Min-heap on indices for deterministic output. *)
  let ready = Pqueue.create () in
  for i = 0 to t.n - 1 do
    if indeg.(i) = 0 then Pqueue.add ready ~priority:(float_of_int i) i
  done;
  let order = ref [] in
  let count = ref 0 in
  while not (Pqueue.is_empty ready) do
    let _, i = Pqueue.pop_min ready in
    order := i :: !order;
    incr count;
    let f j =
      if j <> i then begin
        indeg.(j) <- indeg.(j) - 1;
        if indeg.(j) = 0 then Pqueue.add ready ~priority:(float_of_int j) j
      end
    in
    List.iter f (successors t i)
  done;
  if !count <> t.n then invalid_arg "Relation.topological_order: cyclic relation";
  List.rev !order

(* For an acyclic relation, edge (i, j) is redundant iff some other
   successor k of i reaches j in the closure. *)
let transitive_reduction t =
  if not (is_acyclic t) then invalid_arg "Relation.transitive_reduction: cyclic relation";
  let closure = transitive_closure t in
  let r = create t.n in
  for i = 0 to t.n - 1 do
    let succs = successors t i in
    let redundant j =
      List.exists (fun k -> k <> j && mem closure k j) succs
    in
    List.iter (fun j -> if not (redundant j) then add r i j) succs
  done;
  r
