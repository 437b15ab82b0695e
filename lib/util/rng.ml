(* SplitMix64 (Steele, Lea, Flood 2014). State is a single 64-bit counter
   advanced by the golden-gamma; output is a finalizing mix of the state.
   The state lives in 8 bytes read and written as an unboxed int64, so
   drawing a number allocates nothing. *)

type t = Bytes.t

external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let t = Bytes.create 8 in
  set_state t 0 s;
  t

let make seed = of_state (mix64 (Int64.of_int seed))

let[@inline] bits64 t =
  let s = Int64.add (get_state t 0) golden_gamma in
  set_state t 0 s;
  mix64 s

let split t = of_state (mix64 (bits64 t))

let copy t = Bytes.copy t

let int t bound =
  assert (bound > 0);
  (* Mask to a non-negative native int and reduce; modulo bias is
     negligible for simulation purposes and keeps the generator
     branch-free. *)
  let raw = Int64.to_int (bits64 t) land max_int in
  raw mod bound

let int_in t lo hi =
  assert (lo <= hi);
  lo + int t (hi - lo + 1)

let[@inline] float t bound =
  let raw = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  bound *. (raw /. 9007199254740992.0 (* 2^53 *))

let float_in t lo hi = lo +. float t (hi -. lo)

let bool t = Int64.logand (bits64 t) 1L = 1L

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let pick t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))
