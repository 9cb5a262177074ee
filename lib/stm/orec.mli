(** Ownership-record (transaction-record) table (paper, §2.1).

    A system-wide table maps each memory line (cache-line granularity) to
    one record via a hash; the table is deliberately finite, so distinct
    addresses alias — the *false conflicts* whose reduction explains part
    of the paper's speedups (Table 1).

    Record encoding in one int: even values are versions
    ([version lsl 1]); odd values are locks ([owner lsl 1 lor 1]).
    Versions only grow, monotonically per record.

    Records are dense: the table is one [int array], one word per record,
    read and written only through sequentially consistent C stubs (load,
    store, CAS; the ordering [Atomic] gives).  Eight records share a cache
    line; the hash makes neighbours unrelated, and the memory padding
    would cost buys 8x the records, hence fewer false conflicts.  The
    global version clock, one word every domain writes, keeps its own
    padded line ({!Captured_util.Padding}). *)

type t

val line_words : int
(** Words per conflict-detection granule (4): aligned runs of this many
    words always map to one record. *)

val create : bits:int -> t
(** A table of 2^[bits] records ([4 <= bits <= 24]). *)

val index_of : t -> int -> int
(** Record index for a word address. *)

val count : t -> int

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
    snapshot timestamp is provably unchanged since the snapshot. *)

val clock : t -> int
(** Current clock value (0 on a fresh table). *)

val advance_clock : t -> int
(** Atomically advance the clock; returns the {e new} value.  One
    fetch-and-add (the "clock CAS" commits pay under [tvalidate]). *)

val stamped : ts:int -> int
(** The unlocked word carrying version [ts] (a clock value). *)
