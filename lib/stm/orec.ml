module Padding = Captured_util.Padding

(* SC load, store and CAS on one element of an int array
   ([orec_stubs.c]); the slot index is never checked. *)
external load : int array -> int -> int = "captured_orec_load" [@@noalloc]

external store : int array -> int -> int -> unit = "captured_orec_store"
[@@noalloc]

external cas : int array -> int -> int -> int -> bool = "captured_orec_cas"
[@@noalloc]

module Memory = Captured_tmem.Memory

(* Array-line granule: four aligned words of an array share a record.
   Record blocks use one-word granules; the memory's page table says
   which a word has. *)
let line_words = 1 lsl Memory.line_log2

type t = {
  records : int array;
  shift : int; (* take the HIGH bits of the multiplicative hash *)
  granules : Bytes.t; (* the memory's page table, shared; empty if none *)
  version_clock : int Atomic.t;
}

(* Records are dense: one word each, eight to a 64-byte line, so a CAS
   on one record invalidates its seven neighbours in remote caches.  The
   hash scatters addresses, so those neighbours belong to unrelated lines
   and a peer touches one only by chance, while every record the same
   memory buys cuts aliasing between addresses, and an aliasing conflict
   costs an abort, not a cache miss.  The version clock is the opposite
   case, one word every [+tv] writer commit touches, so it keeps its own
   padded line ({!Padding}).  Cost: 2^bits words (1 MiB at the default 17
   bits). *)
let make granules ~bits =
  if bits < 4 || bits > 24 then invalid_arg "Orec.create: bits";
  {
    records = Array.make (1 lsl bits) 0;
    shift = 62 - bits;
    granules;
    version_clock = Padding.padded_atomic 0;
  }

let create ~bits = make Bytes.empty ~bits
let over memory ~bits = make (Memory.granules memory) ~bits

(* The address's granule, from its page's byte; addresses off the table
   (a table made by [create]) use array lines. *)
let granule_log2 t addr =
  let page = addr lsr Memory.page_log2 in
  if page < Bytes.length t.granules then
    Char.code (Bytes.unsafe_get t.granules page)
  else Memory.line_log2

let line_words_at t addr = 1 lsl granule_log2 t addr

(* Fibonacci hashing: the low product bits are periodic in the address
   (stride 2^k aliasing!), so the index must come from the HIGH bits. *)
let index_of t addr =
  (((addr lsr granule_log2 t addr) * 0x2545F4914F6CDD1D) land max_int)
  lsr t.shift

let count t = Array.length t.records
let get t i = load t.records i
let is_locked word = word land 1 = 1
let owner_of word = word lsr 1
let version_of word = word lsr 1
let locked_word ~owner = (owner lsl 1) lor 1
let bumped prev = ((version_of prev) + 1) lsl 1

let try_lock t i ~owner ~expected =
  cas t.records i expected (locked_word ~owner)

let unlock t i word = store t.records i word

(* Global version clock (TL2/LSA-style).  Commit-time stamps are clock
   values, so "record version <= snapshot timestamp" certifies that the
   line is unchanged since the snapshot was taken — the O(1) consistency
   check timestamp-based validation rests on. *)

let clock t = Atomic.get t.version_clock

let advance_clock t = 1 + Atomic.fetch_and_add t.version_clock 1

let stamped ~ts = ts lsl 1
