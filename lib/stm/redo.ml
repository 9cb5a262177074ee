(* Redo buffer for deferred updates (lazy versioning).

   Two halves:

   - an append-only log of (addr, value) pairs in first-insert order —
     publish walks it front to back, and since overwrites update the
     value in place there is exactly one entry per address and
     last-write-wins is automatic;
   - an open-addressed linear-probe hash table mapping addr -> log
     index, with epoch-stamped slots so clearing between transactions
     is an O(1) epoch bump (same trick as Waw).

   A 63-bit Bloom-style summary word fronts the table: the read
   barrier tests one bit and on a miss never touches the table at
   all. `1 lsl 63` has unspecified behaviour on 63-bit OCaml ints, so
   the bit index is `hash mod 63`. *)

type t = {
  mutable table : int array; (* slot -> buffered address *)
  mutable index : int array; (* slot -> log index; -1 = tombstone *)
  mutable stamp : int array; (* slot -> generation; <> epoch = empty *)
  mutable epoch : int;
  mutable mask : int;
  mutable used : int; (* empty slots consumed this generation *)
  mutable log_addrs : int array;
  mutable log_vals : int array;
  mutable n : int; (* live log entries *)
  mutable summary : int;
}

let initial_slots = 64

let create () =
  {
    table = Array.make initial_slots 0;
    index = Array.make initial_slots (-1);
    stamp = Array.make initial_slots 0;
    epoch = 1;
    mask = initial_slots - 1;
    used = 0;
    log_addrs = Array.make initial_slots 0;
    log_vals = Array.make initial_slots 0;
    n = 0;
    summary = 0;
  }

let clear t =
  t.epoch <- t.epoch + 1;
  t.used <- 0;
  t.n <- 0;
  t.summary <- 0

let size t = t.n
let hash a = (a * 0x2545F4914F6CDD1D) land max_int
let bit a = 1 lsl (hash a mod 63)
let summary_hit t a = t.summary land bit a <> 0

let find t a =
  let mask = t.mask in
  let s = ref (hash a land mask) in
  let r = ref (-2) in
  while !r = -2 do
    let s0 = !s in
    if t.stamp.(s0) <> t.epoch then r := -1
    else if t.index.(s0) >= 0 && t.table.(s0) = a then r := t.index.(s0)
    else s := (s0 + 1) land mask
  done;
  !r

let addr t i = t.log_addrs.(i)
let value t i = t.log_vals.(i)
let set_value t i v = t.log_vals.(i) <- v

(* Install addr -> idx, reusing the first tombstone on the probe path
   if any. The caller guarantees the address is absent and that at
   least one empty slot exists. *)
let place t a idx =
  let mask = t.mask in
  let s = ref (hash a land mask) in
  let tomb = ref (-1) in
  let slot = ref (-1) in
  while !slot < 0 do
    let s0 = !s in
    if t.stamp.(s0) <> t.epoch then
      slot := if !tomb >= 0 then !tomb else s0
    else begin
      if t.index.(s0) < 0 && !tomb < 0 then tomb := s0;
      s := (s0 + 1) land mask
    end
  done;
  let s0 = !slot in
  if t.stamp.(s0) <> t.epoch then t.used <- t.used + 1;
  t.stamp.(s0) <- t.epoch;
  t.table.(s0) <- a;
  t.index.(s0) <- idx

let grow_table t =
  let cap = Array.length t.table * 2 in
  t.table <- Array.make cap 0;
  t.index <- Array.make cap (-1);
  t.stamp <- Array.make cap 0;
  t.epoch <- 1;
  t.mask <- cap - 1;
  t.used <- 0;
  for i = 0 to t.n - 1 do
    place t t.log_addrs.(i) i
  done

let insert t a v =
  if (t.used + 1) * 2 > Array.length t.table then grow_table t;
  place t a t.n;
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

(* Compacts the log in place; the table is rebuilt (same size, next
   generation) only when something was dropped, so the common no-match
   call is one pass over the entries past [from]. *)
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
    t.epoch <- t.epoch + 1;
    t.used <- 0;
    for i = 0 to t.n - 1 do
      place t t.log_addrs.(i) i
    done
  end

let truncate t m =
  for k = t.n - 1 downto m do
    let a = t.log_addrs.(k) in
    let mask = t.mask in
    let s = ref (hash a land mask) in
    let stop = ref false in
    while not !stop do
      let s0 = !s in
      if t.stamp.(s0) <> t.epoch then stop := true (* absent: nothing to do *)
      else if t.index.(s0) >= 0 && t.table.(s0) = a then begin
        t.index.(s0) <- -1;
        stop := true
      end
      else s := (s0 + 1) land mask
    done
  done;
  t.n <- m
