(* Per-transaction int -> int index (read set: orec -> read-log
   position; write set: address -> log index).

   Open addressing with linear probing over three parallel int arrays.
   Slots are epoch-stamped, so [next_attempt] forgets every entry with
   one increment; growth doubles the table once it is half full and
   rehashes the live entries.  The slot is the high bits of a
   multiplicative hash of the key, like [Orec.index_of]: low product
   bits depend only on low key bits. *)

type t = {
  mutable keys : int array;
  mutable vals : int array;
  mutable stamps : int array; (* slot -> generation; <> epoch = empty *)
  mutable epoch : int;
  mutable shift : int;
  mutable n : int;
}

let initial_bits = 6

let create () =
  let cap = 1 lsl initial_bits in
  {
    keys = Array.make cap 0;
    vals = Array.make cap 0;
    stamps = Array.make cap 0;
    epoch = 1;
    shift = 62 - initial_bits;
    n = 0;
  }

let next_attempt t =
  t.epoch <- t.epoch + 1;
  t.n <- 0

let length t = t.n
let slot t k = ((k * 0x2545F4914F6CDD1D) land max_int) lsr t.shift

(* Top-level recursion: a local loop closure would allocate per call on
   the read barrier. *)
let rec probe t k s =
  if Array.unsafe_get t.stamps s <> t.epoch || Array.unsafe_get t.keys s = k
  then s
  else probe t k ((s + 1) land (Array.length t.keys - 1))

let find t k =
  let s = probe t k (slot t k) in
  if Array.unsafe_get t.stamps s = t.epoch then Array.unsafe_get t.vals s
  else -1

(* Claims the probe path's first empty slot (or [k]'s own). *)
let place t k v =
  let s = probe t k (slot t k) in
  if Array.unsafe_get t.stamps s <> t.epoch then begin
    Array.unsafe_set t.stamps s t.epoch;
    Array.unsafe_set t.keys s k;
    t.n <- t.n + 1
  end;
  Array.unsafe_set t.vals s v

let grow t =
  let keys = t.keys and vals = t.vals and stamps = t.stamps in
  let epoch = t.epoch in
  let cap = 2 * Array.length keys in
  t.keys <- Array.make cap 0;
  t.vals <- Array.make cap 0;
  t.stamps <- Array.make cap 0;
  t.epoch <- 1;
  t.shift <- t.shift - 1;
  t.n <- 0;
  Array.iteri (fun s st -> if st = epoch then place t keys.(s) vals.(s)) stamps

let add t k v =
  if 2 * (t.n + 1) > Array.length t.keys then grow t;
  place t k v
