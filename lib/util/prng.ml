(* The 64-bit splitmix state lives unboxed in 8 bytes: a boxed [int64]
   field would allocate a fresh box on every draw.  Draws return an
   [int], so no [int64] escapes the inlined arithmetic either. *)
type t = Bytes.t

let golden = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

(* Advance the state and return splitmix64's output for it.  Inlined:
   a call would box the [int64] it returns. *)
let[@inline] next_int64 t =
  let z = Int64.add (Bytes.get_int64_le t 0) golden in
  Bytes.set_int64_le t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* The next output shifted right by [shift], as an [int]. *)
let draw t shift = Int64.to_int (Int64.shift_right_logical (next_int64 t) shift)

let split t =
  let seed = next_int64 t in
  of_state (Int64.mul seed 0xD1342543DE82EF95L)

(* Splitmix64's state advances by a constant per draw, so skipping [n]
   draws is one multiply-add — the O(1) jump that replaces per-thread
   seed derivation by O(tid) discarded draws. *)
let jump t n =
  if n < 0 then invalid_arg "Prng.jump: negative distance";
  Bytes.set_int64_le t 0
    (Int64.add (Bytes.get_int64_le t 0) (Int64.mul golden (Int64.of_int n)))

let bits t = draw t 2

(* Rejection sampling to avoid modulo bias on pathological [n]: a
   top-level loop, where a local one would allocate its closure. *)
let rec below t n v =
  let r = v mod n in
  if v - r + (n - 1) < 0 then below t n (bits t) else r

let int t n =
  assert (n > 0);
  let v = bits t in
  if n land (n - 1) = 0 then v land (n - 1) else below t n v

let in_range t lo hi =
  assert (hi >= lo);
  lo + int t (hi - lo + 1)

let bool t = draw t 0 land 1 = 1

let chance t ~percent = int t 100 < percent

let float t = Float.of_int (draw t 11) *. 0x1.0p-53

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
