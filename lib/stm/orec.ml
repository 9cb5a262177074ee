module Padding = Captured_util.Padding

type t = {
  shards : int Atomic.t array array;
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

(* Every atomic here lives alone on its cache line ({!Padding}): a plain
   [Atomic.make] boxes the int in a one-word block, so [Array.init] would
   pack eight orecs per 64-byte line and every CAS on one would invalidate
   the other seven in remote caches — classic false sharing, and the
   version clock (touched by every tvalidate commit) is the hottest word
   in the system.  Cost is memory only: 2^bits * 64 B (1 MiB at the
   default 14 bits), paid once per table.  Sharding does not change the
   total size, only the grouping: each sub-table is one contiguous
   padded region ({!Padding.padded_table}). *)
let create ~bits ?(shards = 1) ~line_words_log2 () =
  if bits < 4 || bits > 24 then invalid_arg "Orec.create: bits";
  if shards < 1 || shards land (shards - 1) <> 0 then
    invalid_arg "Orec.create: shards must be a power of two >= 1";
  let shard_bits = log2 shards in
  if shard_bits >= bits then invalid_arg "Orec.create: more shards than orecs";
  let slot_bits = bits - shard_bits in
  {
    shards = Array.init shards (fun _ -> Padding.padded_table (1 lsl slot_bits) 0);
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

let get t i = Atomic.get t.shards.(i lsr t.slot_bits).(i land t.slot_mask)
let is_locked word = word land 1 = 1
let owner_of word = word lsr 1
let version_of word = word lsr 1
let locked_word ~owner = (owner lsl 1) lor 1
let bumped prev = ((version_of prev) + 1) lsl 1

let try_lock t i ~owner ~expected =
  Atomic.compare_and_set t.shards.(i lsr t.slot_bits).(i land t.slot_mask)
    expected (locked_word ~owner)

let unlock t i word =
  Atomic.set t.shards.(i lsr t.slot_bits).(i land t.slot_mask) word

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
