(* The state lives in 8 bytes rather than a mutable [int64] field, whose
   every store would box a fresh [int64]. Read and written in place, with
   [next_int64] inlined into the draws below and [float] into its callers
   (so that its result is not boxed either), a draw allocates nothing. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let create ~seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 seed;
  t

let copy = Bytes.copy

(* SplitMix64 output function: mix the incremented state through two
   xor-shift-multiply rounds (Steele, Lea & Flood, OOPSLA 2014). *)
let[@inline] next_int64 t =
  let z = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t =
  let seed = next_int64 t in
  create ~seed

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Take the top bits (better distributed in SplitMix64) and reduce.
     Modulo bias is negligible for simulator-sized bounds (< 2^40). *)
  let raw = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  raw mod bound

let int_in t ~lo ~hi =
  if hi < lo then invalid_arg "Prng.int_in: hi < lo";
  lo + int t (hi - lo + 1)

let[@inline] float t bound =
  (* 53 uniform bits -> [0, 1) *)
  let bits = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  bound *. (bits /. 9007199254740992.0)

let bool t = Int64.logand (next_int64 t) 1L = 1L

let shuffle_in_place t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let choose t arr =
  if Array.length arr = 0 then invalid_arg "Prng.choose: empty array";
  arr.(int t (Array.length arr))
