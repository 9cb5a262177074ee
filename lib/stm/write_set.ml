(* The transaction's write set, one structure for both engines.

   Two halves:

   - an append-only log of (addr, value, stamp) triples in first-insert
     order — one entry per address.  Under eager versioning the value is
     the word memory held before the transaction's first store there
     (what rollback restores); under lazy versioning it is the buffered
     new value, updated in place by every rewrite (last write wins, and
     publish walks the log front to back).  The stamp names the scope
     that inserted the entry or last journalled it;
   - an [Int_map] from addr to log index, cleared between transactions
     in O(1).  A dropped entry's address maps to -1, which the map
     reports as absent.

   Beside them, the nested-scope journal: an entry's value and stamp
   from before a nested scope's first rewrite of an entry an outer scope
   made ([journal]), replayed by the scope's partial abort
   ([abort_scope]).

   A 63-bit Bloom-style summary word fronts the map: the lazy read
   barrier tests one bit and on a miss never touches the map at all.
   `1 lsl 63` has unspecified behaviour on 63-bit OCaml ints, so the
   bit index is `hash mod 63`. *)

type t = {
  index : Int_map.t;
  mutable log_addrs : int array;
  mutable log_vals : int array;
  mutable log_stamps : int array;
  mutable n : int; (* live log entries *)
  mutable summary : int;
  mutable jour_addrs : int array;
  mutable jour_vals : int array;
  mutable jour_stamps : int array;
  mutable n_jour : int;
}

let create () =
  {
    index = Int_map.create ();
    log_addrs = Array.make 64 0;
    log_vals = Array.make 64 0;
    log_stamps = Array.make 64 0;
    n = 0;
    summary = 0;
    jour_addrs = Array.make 64 0;
    jour_vals = Array.make 64 0;
    jour_stamps = Array.make 64 0;
    n_jour = 0;
  }

let clear t =
  Int_map.next_attempt t.index;
  t.n <- 0;
  t.summary <- 0;
  t.n_jour <- 0

let size t = t.n
let hash a = (a * 0x2545F4914F6CDD1D) land max_int
let bit a = 1 lsl (hash a mod 63)
let summary_hit t a = t.summary land bit a <> 0
let find t a = Int_map.find t.index a
let probe t a = if summary_hit t a then find t a else -1
let addr t i = t.log_addrs.(i)
let value t i = t.log_vals.(i)
let set_value t i v = t.log_vals.(i) <- v
let stamp t i = t.log_stamps.(i)

let grow xs = Array.append xs (Array.make (Array.length xs) 0)

let insert t a v ~stamp =
  Int_map.add t.index a t.n;
  if t.n = Array.length t.log_addrs then begin
    t.log_addrs <- grow t.log_addrs;
    t.log_vals <- grow t.log_vals;
    t.log_stamps <- grow t.log_stamps
  end;
  t.log_addrs.(t.n) <- a;
  t.log_vals.(t.n) <- v;
  t.log_stamps.(t.n) <- stamp;
  t.n <- t.n + 1;
  t.summary <- t.summary lor bit a

let journal_size t = t.n_jour

let journal t i cur ~serial =
  let k = t.n_jour in
  if k = Array.length t.jour_addrs then begin
    t.jour_addrs <- grow t.jour_addrs;
    t.jour_vals <- grow t.jour_vals;
    t.jour_stamps <- grow t.jour_stamps
  end;
  t.jour_addrs.(k) <- t.log_addrs.(i);
  t.jour_vals.(k) <- cur;
  t.jour_stamps.(k) <- t.log_stamps.(i);
  t.n_jour <- k + 1;
  t.log_stamps.(i) <- serial

let restore t memory ~from =
  for k = t.n - 1 downto from do
    Captured_tmem.Memory.set memory t.log_addrs.(k) t.log_vals.(k)
  done;
  t.n - from

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
      t.log_stamps.(!j) <- t.log_stamps.(k);
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

let drop_block t ~from ~journal_from ~lo ~hi =
  remove_range t ~from ~lo ~hi;
  let j = ref journal_from in
  for k = journal_from to t.n_jour - 1 do
    let a = t.jour_addrs.(k) in
    if a < lo || a >= hi then begin
      t.jour_addrs.(!j) <- a;
      t.jour_vals.(!j) <- t.jour_vals.(k);
      t.jour_stamps.(!j) <- t.jour_stamps.(k);
      incr j
    end
  done;
  t.n_jour <- !j

let truncate t m =
  for k = m to t.n - 1 do
    Int_map.add t.index t.log_addrs.(k) (-1)
  done;
  t.n <- m

(* The journal is replayed before the scope's fresh inserts are dropped:
   a grandchild may have journalled an entry the scope inserted. *)
let abort_scope t memory ~in_place ~from ~journal_from =
  for k = t.n_jour - 1 downto journal_from do
    let i = find t t.jour_addrs.(k) and v = t.jour_vals.(k) in
    t.log_stamps.(i) <- t.jour_stamps.(k);
    if in_place then Captured_tmem.Memory.set memory t.jour_addrs.(k) v
    else t.log_vals.(i) <- v
  done;
  let undone =
    t.n_jour - journal_from + if in_place then restore t memory ~from else 0
  in
  t.n_jour <- journal_from;
  truncate t from;
  undone
