(** Per-transaction write set, shared by both versioning engines.

    One entry per address written through the full barrier, in an
    append-only log (first-insert order) indexed by an {!Int_map} from
    address to log index, plus a 63-bit Bloom-style summary word so the
    lazy read path can rule out read-own-write with a single AND before
    probing the index.  Each entry carries a value — the word memory
    held before the first store (eager: what rollback restores) or the
    buffered new value (lazy: what commit publishes) — and a stamp, the
    serial of the scope that inserted or last journalled it.

    The write set also owns the nested-scope journal: the value and
    stamp an entry had before a nested scope first rewrote an entry an
    outer scope made, which that scope's partial abort puts back.

    The structure is integer-only and allocation-free on the hot path
    (probes and overwrites allocate nothing; only growth allocates).
    [clear] is O(1): {!Int_map.next_attempt} is an epoch bump. *)

type t

val create : unit -> t

(** Drop every entry, journal included, in O(1). Called at transaction
    begin. *)
val clear : t -> unit

(** Number of live log entries (= distinct addresses written). *)
val size : t -> int

(** One-branch Bloom filter test. [false] means the address is
    definitely not in the set; [true] means "probe the index". Stale
    bits survive {!truncate} — false positives only. *)
val summary_hit : t -> int -> bool

(** Log index of the entry for [addr], or [-1] if absent. *)
val find : t -> int -> int

(** {!find} behind {!summary_hit}: [-1] at once on a summary miss. *)
val probe : t -> int -> int

(** Address of the [i]-th log entry, in first-insert order. *)
val addr : t -> int -> int

(** Value of the [i]-th log entry. *)
val value : t -> int -> int

(** Overwrite the value at log index [i] in place (write-after-write:
    the log position, and hence publish order, is unchanged). *)
val set_value : t -> int -> int -> unit

(** Scope serial stamped on the [i]-th log entry. *)
val stamp : t -> int -> int

(** Append a fresh entry. The address must not be present ([find]
    returned [-1]). Grows the log and index as needed. *)
val insert : t -> int -> int -> stamp:int -> unit

(** [remove_range t ~from ~lo ~hi] drops the entries at log index
    [from] or later whose address lies in [\[lo, hi)], keeping the
    others in log order — a transaction freeing a block it allocated
    must neither restore nor publish stores into it.  Summary bits are
    left stale (conservative). *)
val remove_range : t -> from:int -> lo:int -> hi:int -> unit

(** Number of journal entries: a nested scope's journal mark. *)
val journal_size : t -> int

(** [journal t i cur ~serial] — the first rewrite of entry [i] by the
    scope numbered [serial], whose stamp is older: journal the entry's
    address, [cur] (its value until now: the memory word under eager
    versioning, the buffered one under lazy) and its stamp, then stamp
    it [serial]. *)
val journal : t -> int -> int -> serial:int -> unit

(** [restore t memory ~from] — eager rollback: store each log entry
    from [from] on, newest first, back into [memory] (the word it held
    before its first write).  Returns the number restored. *)
val restore : t -> Captured_tmem.Memory.t -> from:int -> int

(** {!remove_range}, and the same drop from the journal entries at
    index [journal_from] or later: a block a scope allocated and frees
    is dead, so none of its stores may be restored or published. *)
val drop_block : t -> from:int -> journal_from:int -> lo:int -> hi:int -> unit

(** Drop log entries [\[n..)] — the fresh inserts of an aborting
    nested scope, which are always a suffix of the log. Their
    addresses map to [-1] in the index, so {!find} answers absent
    until they are inserted again; summary bits are left stale
    (conservative). *)
val truncate : t -> int -> unit

(** [abort_scope t memory ~in_place ~from ~journal_from] — partial abort
    of a nested scope whose marks are [from] (log size) and
    [journal_from] (journal size) at its begin.  Replays the journal
    back to [journal_from], newest first: each entry gets its stamp back
    and its value into [memory] ([in_place], eager versioning) or the
    buffer.  Then restores ([in_place]) and {!truncate}s the scope's
    fresh inserts.  Returns the number of entries replayed and
    restored. *)
val abort_scope :
  t ->
  Captured_tmem.Memory.t ->
  in_place:bool ->
  from:int ->
  journal_from:int ->
  int
