let direct_access = 1
let stack_check = 2
let read_barrier = 28
let write_barrier_acquire = 45
let write_barrier_owned = 16
let undo_log_entry = 10
let waw_hit = 5
let read_owned = 12

let commit_base = 20
let commit_per_read = 2
let commit_per_orec = 6
let abort_base = 40
let abort_per_undo = 4

let alloc = 30
let free = 18
let alloca = 2

let validate_per_read = 2
let lock_spin = 4
let spin_limit = 32
let fuel_budget = 512
let txn_begin = 12

(* Timestamp-based validation: a snapshot check is one clock load and one
   compare; the per-read version<=ts test is a single compare on a word
   already in hand; advancing the clock is one contended fetch-and-add;
   a snapshot extension adds its bookkeeping on top of the full
   validation it triggers. *)
let ts_read_check = 1
let tvalidate_check = 2
let clock_advance = 8
let snapshot_extend = 4

(* Hierarchical capture-check fast path: the bounds summary is two
   compares, the MRU block cache two more; promoting a saturated range
   array into a tree rebuilds a cache line's worth of entries once. *)
let capture_summary_check = 2
let capture_mru_check = 2
let capture_promote = 48

(* Site tier ([Site_tier], +fp): one load of the site's sampling counter
   from a thread-owned table and one branch — the same work, and price,
   as [redo_summary_check].  Its bypass threshold, a hit rate of 1/16,
   sits under the break-even rate of both barrier kinds at the cheapest
   failed check (stack + summary = 4 cycles): a hit saves a read barrier
   28 + commit_per_read 2 + validate_per_read 2 - direct_access 1 = 31
   cycles (break-even 4/31), a write acquire 45 + undo_log_entry 10 +
   commit_per_orec 6 - 1 = 60 (break-even 4/60).  A bypassed site
   therefore cannot be one whose checks were paying for themselves. *)
let site_check = 1

(* Backoff after a conflict abort: a 64-cycle unit doubled per attempt up
   to [backoff_max_shift] doublings, plus [jitter land 63] per attempt.
   The cap is one transaction's length: 64 lsl 5 = 2048 cycles is just
   over the longest one-thread cost per commit among the benchmark apps
   (intruder, 1.593 Mcycles / 834 commits ~ 1900 cycles).  A waiter that
   has waited as long as a whole peer transaction has given that peer
   time to commit; waiting longer only idles.  Natively the jitter-free
   wait therefore stays under [Platform.native_relax]'s 4096-cycle sleep
   threshold, so a retry sleeps only once [63 * attempt] of jitter pushes
   it past. *)
let backoff_max_shift = 5

let backoff ~attempt ~jitter =
  let shift = min attempt backoff_max_shift in
  (64 lsl shift) + (jitter land 63) * attempt

(* Contention management (Cm): Karma converts this much logged work
   (read-set + undo entries) into one attempt's worth of backoff
   discount; Timestamp replaces the exponential curve with this linear
   per-abort unit, scaled down by ticket age. *)
let karma_per_discount = 32
let cm_linear_backoff = 96

(* Deferred updates (lazy versioning): the Bloom summary test is one
   AND+branch on a word kept hot; a buffer probe after a summary hit is
   a short open-addressed walk; a fresh insert appends to the log and
   installs a table slot; a commit-time acquire is the same CAS as the
   eager write barrier minus its undo/elision bookkeeping; publishing
   is one store per buffered entry on lines whose orecs are already
   held. *)
let redo_summary_check = 1
let redo_lookup = 6
let redo_insert = 18
let commit_acquire = 20
let publish_per_entry = 3

(* Durability (write-ahead log): serializing one word of a commit record
   into the log buffer is about a store; an fsync is the dominant cost of
   durable commit by orders of magnitude, which is what group commit
   amortises. *)
let wal_append_per_word = 1
let wal_fsync = 500

(* Epoch-based reclamation: announcing is one padded-slot store plus a
   global-epoch load; pushing a limbo entry is a few stores on a line
   the thread owns; an advance attempt scans the slot table and CASes
   the shared epoch word; a grace-period wait iteration re-runs that
   scan and yields. *)
let ebr_announce = 2
let limbo_push = 4
let ebr_advance = 6
let grace_wait = 10

(* Fault injection: extra cycles a Delayed_unlock commit burns while
   still holding its orecs — deliberately beyond the lock-wait budget
   (spin_limit * lock_spin = 128) so waiters spin out. *)
let fault_unlock_delay = 160
