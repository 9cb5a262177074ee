(* Redo buffer for deferred updates (lazy versioning).

   Two halves:

   - an append-only log of (addr, value) pairs in first-insert order —
     publish walks it front to back, and since overwrites update the
     value in place there is exactly one entry per address and
     last-write-wins is automatic;
   - an [Int_map] from addr to log index, cleared between transactions
     in O(1).  A dropped entry's address maps to -1, which the map
     reports as absent.

   A 63-bit Bloom-style summary word fronts the map: the read barrier
   tests one bit and on a miss never touches the map at all.
   `1 lsl 63` has unspecified behaviour on 63-bit OCaml ints, so the
   bit index is `hash mod 63`. *)

type t = {
  index : Int_map.t;
  mutable log_addrs : int array;
  mutable log_vals : int array;
  mutable n : int; (* live log entries *)
  mutable summary : int;
}

let create () =
  {
    index = Int_map.create ();
    log_addrs = Array.make 64 0;
    log_vals = Array.make 64 0;
    n = 0;
    summary = 0;
  }

let clear t =
  Int_map.next_attempt t.index;
  t.n <- 0;
  t.summary <- 0

let size t = t.n
let hash a = (a * 0x2545F4914F6CDD1D) land max_int
let bit a = 1 lsl (hash a mod 63)
let summary_hit t a = t.summary land bit a <> 0
let find t a = Int_map.find t.index a
let addr t i = t.log_addrs.(i)
let value t i = t.log_vals.(i)
let set_value t i v = t.log_vals.(i) <- v

let insert t a v =
  Int_map.add t.index a t.n;
  if t.n = Array.length t.log_addrs then begin
    let cap = t.n * 2 in
    let la = Array.make cap 0 and lv = Array.make cap 0 in
    Array.blit t.log_addrs 0 la 0 t.n;
    Array.blit t.log_vals 0 lv 0 t.n;
    t.log_addrs <- la;
    t.log_vals <- lv
  end;
  t.log_addrs.(t.n) <- a;
  t.log_vals.(t.n) <- v;
  t.n <- t.n + 1;
  t.summary <- t.summary lor bit a

(* Compacts the log in place; the index is rebuilt only when something
   was dropped, so the common no-match call is one pass over the entries
   past [from]. *)
let remove_range t ~from ~lo ~hi =
  let j = ref from in
  for k = from to t.n - 1 do
    let a = t.log_addrs.(k) in
    if a < lo || a >= hi then begin
      t.log_addrs.(!j) <- a;
      t.log_vals.(!j) <- t.log_vals.(k);
      incr j
    end
  done;
  if !j < t.n then begin
    t.n <- !j;
    Int_map.next_attempt t.index;
    for i = 0 to t.n - 1 do
      Int_map.add t.index t.log_addrs.(i) i
    done
  end

let truncate t m =
  for k = m to t.n - 1 do
    Int_map.add t.index t.log_addrs.(k) (-1)
  done;
  t.n <- m
