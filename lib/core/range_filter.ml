type t = {
  slots : int array; (* slot holds the exact address marked, 0 = empty *)
  epochs : int array; (* slot is live only if its epoch matches [epoch] *)
  shift : int;
  mutable epoch : int;
}

let round_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let create ?(buckets = 4096) () =
  let b = round_pow2 (max 16 buckets) in
  let rec log2 v acc = if v <= 1 then acc else log2 (v lsr 1) (acc + 1) in
  {
    slots = Array.make b 0;
    epochs = Array.make b 0;
    shift = 62 - log2 b 0;
    epoch = 1;
  }

(* Multiplicative hashing via the high product bits (the low bits are
   periodic in the address). *)
let slot_of t addr = ((addr * 0x2545F4914F6CDD1D) land max_int) lsr t.shift

let insert t ~lo ~hi =
  if hi <= lo then invalid_arg "Range_filter.insert: empty range";
  for addr = lo to hi - 1 do
    let s = slot_of t addr in
    t.slots.(s) <- addr;
    t.epochs.(s) <- t.epoch
  done

let live t s = t.epochs.(s) = t.epoch

let remove t ~lo ~hi =
  for addr = lo to hi - 1 do
    let s = slot_of t addr in
    (* Only clear slots still holding our address: a collision may have
       repurposed the slot for a live block, which must stay marked. *)
    if live t s && t.slots.(s) = addr then t.epochs.(s) <- 0
  done

(* Top-level recursion: barrier fast path, must not allocate a closure. *)
let rec contains_from t hi addr =
  if addr >= hi then true
  else
    let s = slot_of t addr in
    if live t s && t.slots.(s) = addr then contains_from t hi (addr + 1)
    else false

let contains t ~lo ~hi = hi > lo && contains_from t hi lo

(* Emptying the log is a transaction-end operation, so it must be cheap:
   bumping the epoch invalidates every slot in O(1). *)
let clear t = t.epoch <- t.epoch + 1
