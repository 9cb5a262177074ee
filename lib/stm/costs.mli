(** Virtual-cycle cost model for the simulator.

    Relative magnitudes follow the paper's characterisation: an STM barrier
    costs "about 10 or more instructions", write barriers (lock
    acquisition + undo logging) are more expensive than read barriers,
    capture checks are a few cycles (one range compare for the stack;
    structure-dependent for the heap), and commits/aborts pay per logged
    entry.  Native runs ignore these constants — they measure wall-clock
    directly. *)

val direct_access : int
(** A plain load or store, the unit of the model. *)

val stack_check : int
val read_barrier : int
val write_barrier_acquire : int
(** First write to an orec: CAS acquisition. *)

val write_barrier_owned : int
(** Subsequent writes to an already-owned orec. *)

val undo_log_entry : int
(** Eager versioning: a first write's write-set entry; either engine: a
    nested scope's journal entry for an outer scope's entry. *)

val waw_hit : int
(** A rewrite of an address already in the write set (no new entry). *)

val read_owned : int

val commit_base : int
val commit_per_read : int
val commit_per_orec : int
val abort_base : int
val abort_per_undo : int

val alloc : int
val free : int
val alloca : int

val validate_per_read : int
val lock_spin : int
(** One lock-wait spin iteration on a held orec. *)

val spin_limit : int
(** Lock-wait spins before a barrier self-aborts, for an attempt that
    owns an orec or whose read log is short.  An attempt that owns no
    orec may spin up to its redo break-even instead:
    [min (n_reads * read_barrier) (64 lsl backoff_max_shift) / lock_spin]
    spins when that is larger, waiting while the wait costs less than
    re-running the reads an abort would discard, never past 2048
    cycles.  At [spin_limit] spins such a wait scans its read log once
    and ends if the attempt is already lost ([Lock_wait.spin_on_lock]). *)

val fuel_budget : int
(** Zombie guard: transactional operations per attempt between forced
    revalidations.  Every read, write, alloc, free, alloca and [tx_work]
    burns one unit, captured and owned accesses included, so an
    inconsistent attempt runs at most this many operations unchecked. *)

val txn_begin : int

val ts_read_check : int
(** Timestamp validation: per-read [version <= start_ts] compare. *)

val tvalidate_check : int
(** Timestamp validation: one O(1) clock-vs-snapshot compare (replaces a
    full read-set scan when the snapshot is still current). *)

val clock_advance : int
(** Commit-time global-version-clock fetch-and-add. *)

val snapshot_extend : int
(** Bookkeeping of a snapshot extension, on top of the full validation it
    triggers. *)

val capture_summary_check : int
(** Fast-path tier 1: empty-log short-circuit + lo/hi envelope compare. *)

val capture_mru_check : int
(** Fast-path tier 2: single-entry MRU block-cache compare. *)

val capture_promote : int
(** One-time cost of promoting a saturated range array to a range tree. *)

val site_check : int
(** [+fp] site tier ({!Site_tier}): the per-access lookup of the site's
    bypass state, paid by every in-scope access, checked or bypassed. *)

val backoff_max_shift : int
(** Doublings after which {!backoff}'s exponential window stops growing:
    the jitter-free wait never exceeds [64 lsl backoff_max_shift] = 2048
    cycles, about one transaction of the costliest benchmark app. *)

val backoff : attempt:int -> jitter:int -> int
(** Exponential backoff cycles for retry [attempt] (1-based); [jitter] in
    [0, 63] decorrelates threads.  Monotone in [attempt] (capped at
    {!backoff_max_shift} doublings), adds at most [63 * attempt] jitter
    cycles over the jitter-free value, never negative.  It is the longest
    retry wait: a lock-wait abort stops waiting once the orec that stopped
    it is released. *)

val redo_summary_check : int
(** Lazy versioning: one-AND Bloom summary test fronting every barrier's
    redo-buffer probe (the whole cost of a buffer miss). *)

val redo_lookup : int
(** Lazy versioning: open-addressed buffer probe after a summary hit
    (read-own-write, or write-after-write in the buffer). *)

val redo_insert : int
(** Lazy versioning: fresh redo-log append + table-slot install. *)

val commit_acquire : int
(** Lazy versioning: commit-time CAS acquisition of one write-set orec
    (the eager write barrier's CAS without its undo/elision
    bookkeeping). *)

val publish_per_entry : int
(** Lazy versioning: commit-time write-back of one buffered entry, on a
    line whose orec is already held. *)

val wal_append_per_word : int
(** Durability: serializing one word of a commit record into the WAL
    buffer. *)

val wal_fsync : int
(** Durability: one fsync (group commit exists to amortise this). *)

val ebr_announce : int
(** Epoch-based reclamation: one announcement-slot store plus the
    global-epoch load it publishes (begin/commit/abort hooks). *)

val limbo_push : int
(** Epoch-based reclamation: parking one committed free on the limbo
    list (stores on a thread-owned line). *)

val ebr_advance : int
(** Epoch-based reclamation: one advance attempt — slot-table scan plus
    the global-epoch CAS (also a scheduling point under the checker). *)

val grace_wait : int
(** Epoch-based reclamation: one {!Txn.quiesce} spin iteration behind
    the privatization fence (also a scheduling point). *)

val fault_unlock_delay : int
(** {!Fault.Delayed_unlock}: cycles a commit holds its locks beyond the
    release point — more than the whole budget,
    [spin_limit * lock_spin], of a waiter that owns an orec or has a
    short read log, which therefore spins out.  A waiter with a longer
    budget ({!spin_limit}) may wait the delay out. *)
