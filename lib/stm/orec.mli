(** Ownership-record (transaction-record) table (paper, §2.1).

    A system-wide table maps each memory line (cache-line granularity) to
    one record via a hash; the table is deliberately finite, so distinct
    addresses alias — the *false conflicts* whose reduction explains part
    of the paper's speedups (Table 1).

    Record encoding in one int: even values are versions
    ([version lsl 1]); odd values are locks ([owner lsl 1 lor 1]).
    Versions only grow, monotonically per record (per writer thread in
    decentralized-clock mode — see {!stamp}).

    The table may be {e sharded}: 2^bits records split across [shards]
    contiguous sub-tables.  The record index is the flat Fibonacci hash
    at every shard count; the shard is its high bits and the slot its low
    bits, so sharding changes where a record lives, never which record an
    address maps to.

    Records are dense: each sub-table is one [int array], one word per
    record, read and written only through sequentially consistent C
    stubs (load, store, CAS; the ordering [Atomic] gives).  Eight records
    share a cache line; the hash makes neighbours unrelated, and the
    memory padding would cost buys 8x the records, hence fewer false
    conflicts.  The global version clock, one word every domain writes,
    keeps its own padded line ({!Captured_util.Padding}). *)

type t

val create : bits:int -> ?shards:int -> line_words_log2:int -> unit -> t
(** [shards] (default 1) must be a power of two below 2^bits. *)

val index_of : t -> int -> int
(** Record index for a word address: the flat, global index — shard and
    slot are recovered with {!shard_of} / {!slot_of}. *)

val count : t -> int

val shard_count : t -> int
(** Number of sub-tables (1 = monolithic). *)

val slot_bits : t -> int
(** [log2 (count / shard_count)]: shard id of index [i] is
    [i lsr slot_bits t]. *)

val shard_of : t -> int -> int
(** Shard id of a record index. *)

val slot_of : t -> int -> int
(** Slot within the shard of a record index. *)

val get : t -> int -> int
(** Current word of record [i]. *)

val is_locked : int -> bool
val owner_of : int -> int
(** Only meaningful when [is_locked]. *)

val version_of : int -> int
(** Only meaningful when unlocked. *)

val locked_word : owner:int -> int

val bumped : int -> int
(** [bumped prev] is the unlocked word with [prev]'s version + 1 ([prev]
    must be an unlocked word). *)

val try_lock : t -> int -> owner:int -> expected:int -> bool
(** CAS record [i] from unlocked [expected] to locked-by-[owner]. *)

val unlock : t -> int -> int -> unit
(** [unlock t i word] stores an unlocked [word] (release). *)

(** {2 Global version clock}

    One shared monotonic counter per orec table (TL2/LSA style).  With
    timestamp-based validation ({!Config.t.tvalidate}) commits stamp the
    records they release with a freshly advanced clock value instead of a
    per-record bump, so a record whose version is [<=] a transaction's
    snapshot timestamp is provably unchanged since the snapshot.

    Under the decentralized clock ({!Config.clock} [Local]) writer
    commits never touch this counter; it remains only as the resync rendezvous for
    aborting threads (see {!Txn}). *)

val clock : t -> int
(** Current clock value (0 on a fresh table). *)

val advance_clock : t -> int
(** Atomically advance the clock; returns the {e new} value.  One
    fetch-and-add (the "clock CAS" commits pay under centralized
    [tvalidate]). *)

val stamped : ts:int -> int
(** The unlocked word carrying version [ts] (a clock value). *)

(** {2 Decentralized stamps (GV5/GV7 family)}

    A decentralized version is [(epoch lsl tid_bits) lor tid]: each
    thread stamps from its own per-thread-monotonic epoch counter, so
    producing a fresh stamp needs no shared-memory RMW at all.  Readers
    judge freshness against per-peer epoch watermarks instead of a
    snapshot timestamp (see {!Txn}). *)

val tid_bits : int
(** Bits reserved for the thread id inside a stamp (10). *)

val max_tids : int
(** [2^tid_bits]: threads an engine can stamp for (1024). *)

val stamp : epoch:int -> tid:int -> int
(** Version value for [epoch] of thread [tid]. *)

val epoch_of_stamp : int -> int
val tid_of_stamp : int -> int
