module Padding = Captured_util.Padding

(* SC load, store and CAS on one element of an int array
   ([orec_stubs.c]); the slot index is never checked. *)
external load : int array -> int -> int = "captured_orec_load" [@@noalloc]

external store : int array -> int -> int -> unit = "captured_orec_store"
[@@noalloc]

external cas : int array -> int -> int -> int -> bool = "captured_orec_cas"
[@@noalloc]

type t = {
  shards : int array array;
  (* Two-level decomposition of the flat 2^bits index space:
     [shard = index lsr slot_bits], [slot = index land slot_mask].  With
     one shard ([shard_mask = 0]) the layout and the arithmetic collapse
     to exactly the monolithic table this replaces — the bit-for-bit
     compatibility the sim-determinism pins rely on. *)
  slot_bits : int;
  slot_mask : int;
  shard_mask : int;
  shift : int; (* take the HIGH bits of the multiplicative hash *)
  line_words_log2 : int;
  version_clock : int Atomic.t;
}

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

(* Records are dense: one word each, eight to a 64-byte line, so a CAS
   on one record invalidates its seven neighbours in remote caches.  The
   hash scatters addresses, so those neighbours belong to unrelated lines
   and a peer touches one only by chance, while every record the same
   memory buys cuts aliasing between addresses, and an aliasing conflict
   costs an abort, not a cache miss.  The version clock is the opposite
   case, one word every [+tv] writer commit touches, so it keeps its own
   padded line ({!Padding}).  Cost: 2^bits words (1 MiB at the default 17
   bits).  Each shard is one contiguous array. *)
let create ~bits ?(shards = 1) ~line_words_log2 () =
  if bits < 4 || bits > 24 then invalid_arg "Orec.create: bits";
  if shards < 1 || shards land (shards - 1) <> 0 then
    invalid_arg "Orec.create: shards must be a power of two >= 1";
  let shard_bits = log2 shards in
  if shard_bits >= bits then invalid_arg "Orec.create: more shards than orecs";
  let slot_bits = bits - shard_bits in
  {
    shards = Array.init shards (fun _ -> Array.make (1 lsl slot_bits) 0);
    slot_bits;
    slot_mask = (1 lsl slot_bits) - 1;
    shard_mask = shards - 1;
    shift = 62 - bits;
    line_words_log2;
    version_clock = Padding.padded_atomic 0;
  }

(* Fibonacci hashing: the low product bits are periodic in the address
   (stride 2^k aliasing!), so the index must come from the HIGH bits.
   Sharding reads the same index two-level — shard id from its high
   bits, slot from its low bits — so every address maps to the record it
   had in the monolithic table. *)
let index_of t addr =
  (((addr lsr t.line_words_log2) * 0x2545F4914F6CDD1D) land max_int)
  lsr t.shift

let count t = (t.shard_mask + 1) lsl t.slot_bits
let shard_count t = t.shard_mask + 1
let slot_bits t = t.slot_bits
let shard_of t i = i lsr t.slot_bits
let slot_of t i = i land t.slot_mask

let get t i = load t.shards.(i lsr t.slot_bits) (i land t.slot_mask)
let is_locked word = word land 1 = 1
let owner_of word = word lsr 1
let version_of word = word lsr 1
let locked_word ~owner = (owner lsl 1) lor 1
let bumped prev = ((version_of prev) + 1) lsl 1

let try_lock t i ~owner ~expected =
  cas t.shards.(i lsr t.slot_bits) (i land t.slot_mask) expected
    (locked_word ~owner)

let unlock t i word = store t.shards.(i lsr t.slot_bits) (i land t.slot_mask) word

(* Global version clock (TL2/LSA-style).  Commit-time stamps are clock
   values, so "record version <= snapshot timestamp" certifies that the
   line is unchanged since the snapshot was taken — the O(1) consistency
   check timestamp-based validation rests on.  Under the decentralized
   ([Local]) clock writer commits never touch this word; it
   survives as the resync rendezvous aborting threads use to jump their
   local epoch past everything already published. *)

let clock t = Atomic.get t.version_clock

let advance_clock t = 1 + Atomic.fetch_and_add t.version_clock 1

let stamped ~ts = ts lsl 1

(* Decentralized stamps: a version is [(epoch lsl tid_bits) lor tid], so
   every thread owns a disjoint, per-thread-monotonic slice of version
   space and never needs the shared counter to produce a fresh stamp. *)

let tid_bits = 10
let max_tids = 1 lsl tid_bits
let stamp ~epoch ~tid = (epoch lsl tid_bits) lor tid
let epoch_of_stamp ts = ts lsr tid_bits
let tid_of_stamp ts = ts land (max_tids - 1)
