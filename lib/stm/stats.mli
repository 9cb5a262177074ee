(** Per-thread STM event counters.

    Everything the evaluation reports is derived from these: commit/abort
    ratios (Table 1), elided-barrier fractions (Figure 9), and — in audit
    mode — the Figure 8 classification of each instrumented access as
    captured-heap, captured-stack, required (STAMP's manual
    instrumentation would also barrier it) or other-not-required.

    The record below is the one list of counters.  Each integer field has
    one row in {!counters}, which derives {!merge}, {!json_fields} and
    {!report}; a field's name is its JSON key and its report label. *)

type t = {
  mutable commits : int;
  mutable aborts : int;
  mutable user_aborts : int;
  mutable nested_commits : int;
  mutable nested_aborts : int;
  (* dynamic barrier counts *)
  mutable reads : int;
  mutable writes : int;
  mutable reads_elided_stack : int;
  mutable reads_elided_heap : int;
  mutable reads_elided_private : int;
  mutable reads_elided_static : int;
  mutable reads_elided_init : int;
      (** Plain reads at a site declared init-only
          ({!Captured_core.Site.declare}): loaded directly, with no
          capture check and no read-log entry. *)
  mutable reads_forwarded : int;
      (** Instrumented reads of an address the attempt had already read,
          answered from the read log without the orec sandwich (a subset
          of [reads] minus the elided ones). *)
  mutable reads_line_mate : int;
      (** Instrumented reads under an orec already in the read log that
          were not forwarded (another address of the line, or a value
          this thread's own direct store changed), proved current by one
          orec load against the logged word. *)
  mutable writes_elided_stack : int;
  mutable writes_elided_heap : int;
  mutable writes_elided_private : int;
  mutable writes_elided_static : int;
  mutable waw_hits : int;
      (** Instrumented writes to an address already in the write set,
          on both engines (none takes a new write-set entry).  Under
          [+lazy], [redo_inserts + waw_hits + redo_skips] is [writes]
          (less any a [Redo_drop] fault lost). *)
  mutable undo_entries : int;
      (** Write-set inserts under eager versioning, plus nested-scope
          journal entries on either engine (a scope's first rewrite of
          an entry an outer scope made). *)
  mutable validations : int;
  mutable value_rescues : int;
      (** Read-log entries whose orec moved yet whose word still held
          the logged value: validation adopted the new orec word instead
          of aborting (a line-mate's commit, not a conflict). *)
  mutable lock_waits : int;
  (* audit-mode classification (Figure 8) *)
  mutable audit_reads_heap : int;
  mutable audit_reads_stack : int;
  mutable audit_reads_required : int;
  mutable audit_reads_other : int;
  mutable audit_writes_heap : int;
  mutable audit_writes_stack : int;
  mutable audit_writes_required : int;
  mutable audit_writes_other : int;
  mutable audit_static_violations : int;
      (** Accesses at sites the compiler analysis marked captured that the
          precise runtime check says are NOT captured — must stay 0, or
          the analysis is unsound. *)
  (* allocator *)
  mutable tx_allocs : int;
  mutable tx_frees : int;
  (* hierarchical capture-check fast path *)
  mutable capture_summary_rejects : int;
      (** Heap capture checks answered by the empty-log/bounds summary. *)
  mutable capture_mru_hits : int;
      (** Heap capture checks answered by the MRU block cache. *)
  mutable capture_backend_probes : int;
      (** Heap capture checks that reached the backend (hit or miss). *)
  mutable capture_promotions : int;
      (** Saturated range arrays promoted in place to range trees. *)
  mutable capture_log_overflows : int;
      (** Allocations the range array dropped (fastpath off: log went
          conservative). *)
  mutable capture_check_cycles : int;
      (** Total simulated cycles charged for heap capture checks — the
          quantity the fast path exists to shrink. *)
  mutable capture_site_bypasses : int;
      (** In-scope accesses whose capture check the [+fp] site tier
          skipped because their site rarely hits ({!Site_tier}). *)
  (* timestamp-based validation ([Config.tvalidate]) *)
  mutable validations_skipped : int;
      (** Full read-set scans replaced by an O(1) clock-vs-snapshot
          compare (fuel-forced zombie guards and commit-time validations
          whose snapshot was still current). *)
  mutable snapshot_extensions : int;
      (** Snapshot extensions: a newer-than-snapshot orec version forced
          one full validation, after which the snapshot timestamp was
          advanced instead of aborting. *)
  mutable readonly_fast_commits : int;
      (** Read-only transactions (no acquired orecs) committed with no
          validation scan and no clock bump. *)
  mutable clock_advances : int;
      (** Commit-time global-version-clock CASes (fetch-and-add). *)
  mutable validation_cycles : int;
      (** Total simulated cycles charged for consistency checking: full
          read-set scans, per-read timestamp compares, clock compares and
          snapshot-extension bookkeeping — the quantity timestamp-based
          validation exists to shrink. *)
  (* robustness layer: sandbox, retry backoff, fault injection *)
  mutable spin_aborts : int;
      (** Conflict aborts caused by a lock-wait spin exhausting its limit
          (previously folded into [aborts], which still includes them). *)
  mutable waits_extended : int;
      (** Lock waits that went past [Costs.spin_limit] spins: an attempt
          that owns no orec and whose read log makes redoing it dearer
          than waiting, and whose doom scan found it not yet lost. *)
  mutable backoff_cycles : int;
      (** Total simulated cycles burnt between a conflict abort and its
          retry ({!Costs.backoff}). *)
  mutable fuel_exhaustions : int;
      (** Zombie-guard firings: validation-fuel budgets
          ([Costs.fuel_budget] operations) that ran dry, forcing a
          revalidation; counts forced checks, not aborts. *)
  mutable sandbox_aborts : int;
      (** Exceptions raised inside an attempt that post-hoc validation
          proved to be zombie fallout — silently converted to
          abort+retry instead of propagating. *)
  mutable sandbox_bounds : int;
      (** Out-of-range addresses caught by the barrier bounds guard
          before touching memory (zombie-computed garbage pointers). *)
  mutable faults_injected : int;
      (** Times the configured {!Fault.kind} actually fired. *)
  mutable cm_max_consec_aborts : int;
      (** Longest run of consecutive conflict aborts by any single
          transaction (merged across threads with [max], not [+]). *)
  (* lazy versioning ([Config.lazy_versioning]) *)
  mutable redo_inserts : int;
      (** Fresh entries appended to the redo buffer (distinct shared
          addresses written; overwrites count as [waw_hits] instead). *)
  mutable redo_hits : int;
      (** Read barriers answered from the transaction's own redo buffer
          (read-own-write). *)
  mutable redo_skips : int;
      (** The paper's lazy-mode payoff: writes the capture check proved
          captured, stored directly and never buffered — each one elides
          both a buffer insert and a commit-time write-back. *)
  mutable publish_cycles : int;
      (** Total simulated cycles charged for commit-time write-back of
          buffered values — the quantity [redo_skips] shrinks. *)
  (* durability ([Config.durable]) *)
  mutable wal_records : int;
      (** Records appended to the write-ahead log (commit + raw;
          checkpoints are counted by the engine, not per thread). *)
  mutable wal_bytes : int;
      (** Total serialized bytes appended to the WAL. *)
  mutable wal_fsyncs : int;
      (** Group-commit fsyncs this thread triggered. *)
  mutable wal_skips : int;
      (** The paper's insight carried into the persistence layer: writes
          the capture check proved transaction-local, which therefore
          need no WAL entry — the durable mirror of [redo_skips]. *)
  (* epoch-based reclamation ([Config.ebr]) *)
  mutable limbo_blocks : int;
      (** High-water mark of blocks simultaneously in this thread's limbo
          list (merged across threads with [max], not [+]). *)
  mutable limbo_words : int;
      (** High-water mark of payload words in limbo (max-merged). *)
  mutable epoch_advances : int;
      (** Successful global-epoch CASes this thread performed. *)
  mutable reclaim_stalls : int;
      (** Reclaim sweeps that left at least one limbo entry behind — its
          grace period had not elapsed (in-flight readers still hold the
          epoch back). *)
  mutable grace_waits : int;
      (** Spin iterations inside {!Txn.quiesce} waiting for the global
          epoch to pass the privatization fence. *)
  (* conflict accounting *)
  mutable orec_acquires : int;
      (** Orec acquisitions (write locks). *)
  mutable rfw_acquires : int;
      (** The orec acquisitions a read-for-write made
          ({!Txn.read_for_write_at}): counted in [orec_acquires] too. *)
  mutable conflict_episodes : int;
      (** Lock-wait episodes: a barrier found the orec held by another
          thread (counted once per wait, not per spin). *)
  conflict_pairs : (int, int) Hashtbl.t;
      (** Conflict-locality map: [(waiter-tid, owner-tid)] packed as
          [(tid lsl 10) lor peer] → episode count.  Decode with
          {!pairs}. *)
}

val create : unit -> t

type merge =
  | Sum  (** a flow count: merging adds *)
  | Max  (** a per-thread high-water mark: merging takes the larger *)

type counter = {
  name : string;  (** the record field's name *)
  merge : merge;
  get : t -> int;
  set : t -> int -> unit;
}

val counters : counter list
(** Every integer field of {!t}, once each, in field order. *)

val merge : t -> t -> unit
(** [merge acc x] folds [x] into [acc] row by row of {!counters}
    (conflict pairs add per key). *)

val sum : t list -> t

val max_tids : int
(** Thread ids the conflict-pair key can hold (1024): both tids of a
    pair share one int, 10 bits each. *)

val note_pair : t -> tid:int -> peer:int -> unit
(** Record one conflict episode of [tid] waiting on [peer].  Both tids
    must be below {!max_tids}. *)

val pairs : t -> (int * int * int) list
(** Decoded conflict-locality map, [(waiter, owner, count)], sorted by
    descending count. *)

val reads_elided : t -> int
(** Every elided read: the four capture classes and the init-only
    reads. *)

val writes_elided : t -> int
val abort_ratio : t -> float
(** aborts / commits — the paper's Table 1 metric. *)

val pp : Format.formatter -> t -> unit
(** One-line summary: commits, aborts, reads, writes, elisions. *)

val json_fields : t -> string
(** The comma-separated JSON fields ["name":value] of every counter, then
    [top_conflict_pairs] (the eight hottest [{tid, peer, count}]); no
    enclosing braces, so callers add their own keys. *)

val report : t -> string
(** The text report: one ["name: value"] line per non-zero counter
    ([commits] and [aborts] always), then the hottest conflict pair
    when there is one. *)
