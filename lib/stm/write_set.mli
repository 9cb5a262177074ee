(** Per-transaction write set, shared by both versioning engines.

    One entry per address written through the full barrier, in an
    append-only log (first-insert order) indexed by an {!Int_map} from
    address to log index, plus a 63-bit Bloom-style summary word so the
    lazy read path can rule out read-own-write with a single AND before
    probing the index.  Each entry carries a value — the word memory
    held before the first store (eager: what rollback restores) or the
    buffered new value (lazy: what commit publishes) — and a stamp, the
    serial of the scope that inserted or last journalled it.

    The structure is integer-only and allocation-free on the hot path
    (probes and overwrites allocate nothing; only growth allocates).
    [clear] is O(1): {!Int_map.next_attempt} is an epoch bump. *)

type t

val create : unit -> t

(** Drop every entry in O(1). Called at transaction begin. *)
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

val set_stamp : t -> int -> int -> unit

(** Append a fresh entry. The address must not be present ([find]
    returned [-1]). Grows the log and index as needed. *)
val insert : t -> int -> int -> stamp:int -> unit

(** [remove_range t ~from ~lo ~hi] drops the entries at log index
    [from] or later whose address lies in [\[lo, hi)], keeping the
    others in log order — a transaction freeing a block it allocated
    must neither restore nor publish stores into it.  Summary bits are
    left stale (conservative). *)
val remove_range : t -> from:int -> lo:int -> hi:int -> unit

(** Drop log entries [\[n..)] — the fresh inserts of an aborting
    nested scope, which are always a suffix of the log. Their
    addresses map to [-1] in the index, so {!find} answers absent
    until they are inserted again; summary bits are left stale
    (conservative). *)
val truncate : t -> int -> unit
