(* SplitMix64 pseudo-random generator.

   Deterministic, seedable and splittable: every component of the simulator
   and every data generator takes an explicit [Prng.t] so that each figure of
   the paper is reproduced bit-for-bit across runs. *)

(* The state is an 8-byte buffer, not a mutable [int64] field: reading
   and writing it are unboxed primitives, so a draw that ends in a native
   int (or is inlined into a float computation) allocates nothing. A
   boxed field costs a fresh int64 block on every write. *)
type t = Bytes.t

let[@inline] state t = Bytes.get_int64_le t 0
let[@inline] set_state t s = Bytes.set_int64_le t 0 s

let of_state s =
  let t = Bytes.create 8 in
  set_state t s;
  t

let create seed = of_state (Int64.of_int seed)

let copy = Bytes.copy

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next t =
  let s = Int64.add (state t) golden_gamma in
  set_state t s;
  mix s

let next_int64 t = next t

let split t = of_state (next t)

(* A non-negative 62-bit integer. *)
let[@inline] next_int t = Int64.to_int (Int64.shift_right_logical (next t) 2)

(* [n] consecutive draws written as native ints, identical to [n] calls
   of [Int64.to_int (next_int64 t)] — the batched weight-splitter's hot
   path. *)
let fill_int63 t out ~n =
  for i = 0 to n - 1 do
    out.(i) <- Int64.to_int (next t)
  done

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  next_int t mod bound

let int_in_range t ~lo ~hi =
  if hi < lo then invalid_arg "Prng.int_in_range: empty range";
  lo + int t (hi - lo + 1)

let[@inline] float t bound =
  let x = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  (* 53 random bits scaled to [0, 1). *)
  x /. 9007199254740992.0 *. bound

let bool t = Int64.logand (next t) 1L = 1L

let chance t p = float t 1.0 < p

(* Exponentially distributed value with the given mean, for inter-arrival
   times in the workload driver. *)
let exponential t ~mean =
  let u = float t 1.0 in
  -. mean *. log (1.0 -. u)

let shuffle_in_place t arr =
  let n = Array.length arr in
  for i = n - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Prng.pick: empty array";
  arr.(int t (Array.length arr))
