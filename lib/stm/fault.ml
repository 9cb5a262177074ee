(* Structured fault injection.

   Each kind names one way the STM could be broken — by a bug in this
   code, by a port to weaker hardware, or by a paper optimisation applied
   one step too far.  A configuration carries at most one injected fault;
   the barriers and commit path probe [rate]-percent draws from the
   owning thread's PRNG at the matching site, so a fault's firing pattern
   is a pure function of (config, seed, schedule) and any misbehaviour it
   causes replays deterministically under the schedule-exploration
   checker.

   [expectation] is the contract the robustness layer signs per fault:
   [Contained] faults are absorbed by the sandbox/retry machinery (the
   run stays correct, merely slower); [Flagged] faults genuinely break
   opacity and the checker's oracle must report them. *)

type kind =
  | Skip_validation
  | Blind_rescue
  | Stale_read
  | Delayed_unlock
  | Spurious_abort
  | Alloc_log_drop
  | Clock_stall
  | Redo_drop
  | Publish_partial
  | Crash_pre_commit
  | Crash_mid_publish
  | Crash_post_publish
  | Crash_mid_checkpoint
  | Torn_wal_record
  | Torn_tail_replayed
  | Premature_reuse

let all =
  [
    Skip_validation;
    Blind_rescue;
    Stale_read;
    Delayed_unlock;
    Spurious_abort;
    Alloc_log_drop;
    Clock_stall;
    Redo_drop;
    Publish_partial;
    Crash_pre_commit;
    Crash_mid_publish;
    Crash_post_publish;
    Crash_mid_checkpoint;
    Torn_wal_record;
    Torn_tail_replayed;
    Premature_reuse;
  ]

let name = function
  | Skip_validation -> "skip-validation"
  | Blind_rescue -> "blind-rescue"
  | Stale_read -> "stale-read"
  | Delayed_unlock -> "delayed-unlock"
  | Spurious_abort -> "spurious-abort"
  | Alloc_log_drop -> "alloc-log-drop"
  | Clock_stall -> "clock-stall"
  | Redo_drop -> "redo-drop"
  | Publish_partial -> "publish-partial"
  | Crash_pre_commit -> "crash-pre-commit"
  | Crash_mid_publish -> "crash-mid-publish"
  | Crash_post_publish -> "crash-post-publish"
  | Crash_mid_checkpoint -> "crash-mid-checkpoint"
  | Torn_wal_record -> "torn-wal-record"
  | Torn_tail_replayed -> "torn-tail-replayed"
  | Premature_reuse -> "premature-reuse"

let names = List.map name all

let of_name s = List.find_opt (fun k -> name k = s) all

(* Crash-point faults kill the simulated process at their site instead of
   corrupting a still-running one.  Their sites only exist when a WAL is
   attached ([Config.durable]). *)
let is_crash = function
  | Crash_pre_commit | Crash_mid_publish | Crash_post_publish
  | Crash_mid_checkpoint | Torn_wal_record | Torn_tail_replayed ->
      true
  | Skip_validation | Blind_rescue | Stale_read | Delayed_unlock
  | Spurious_abort | Alloc_log_drop | Clock_stall | Redo_drop
  | Publish_partial | Premature_reuse ->
      false

type expectation = Contained | Flagged

let expectation = function
  | Skip_validation | Blind_rescue | Stale_read | Clock_stall | Redo_drop
  | Publish_partial | Torn_tail_replayed | Premature_reuse ->
      Flagged
  | Delayed_unlock | Spurious_abort | Alloc_log_drop | Crash_pre_commit
  | Crash_mid_publish | Crash_post_publish | Crash_mid_checkpoint
  | Torn_wal_record ->
      Contained

(* Percent chance per opportunity.  [Skip_validation] is unconditional —
   it predates this registry as [bug_skip_validation] and the canary
   tests rely on every validation lying.  [Blind_rescue] is too: its
   site is already rare (a moved orec over a single-address entry), and
   it draws no PRNG, so its schedules match the fault-free ones up to
   the first blind adoption.  [Spurious_abort]'s site is
   every barrier, so its rate is kept low enough that transactions still
   commit within a few attempts. *)
let rate = function
  | Skip_validation -> 100
  | Blind_rescue -> 100
  | Stale_read -> 50
  | Delayed_unlock -> 50
  | Spurious_abort -> 4
  | Alloc_log_drop -> 50
  | Clock_stall -> 50
  | Redo_drop -> 50
  | Publish_partial -> 50
  (* Crash points: moderate rates so a few transactions usually land
     before the process dies, giving recovery a non-trivial log.
     [Crash_mid_checkpoint]'s only site is the explicit checkpoint call,
     so it fires every time. *)
  | Crash_pre_commit -> 20
  | Crash_mid_publish -> 20
  | Crash_post_publish -> 20
  | Crash_mid_checkpoint -> 100
  | Torn_wal_record | Torn_tail_replayed -> 20
  | Premature_reuse -> 50

let describe = function
  | Skip_validation ->
      "read-set validation always reports success; per-read timestamp \
       checks are skipped (lost updates slip through)"
  | Blind_rescue ->
      "validation rescues a read whose orec moved without checking that \
       memory still holds the logged value (a commit to the very word read \
       passes as a line-mate's)"
  | Stale_read ->
      "a read barrier occasionally opens a window between value load and \
       version log and trusts the post-window version (TOCTOU: a stale \
       value can pass commit validation)"
  | Delayed_unlock ->
      "a writing commit occasionally burns extra cycles before releasing \
       its orecs (waiters spin out and self-abort; correctness is \
       unaffected)"
  | Spurious_abort ->
      "barriers occasionally raise a conflict out of thin air (retry \
       machinery must absorb it)"
  | Alloc_log_drop ->
      "transactional allocations are occasionally left out of the capture \
       log (elision lost, accesses fall back to full barriers — the \
       conservative direction)"
  | Clock_stall ->
      "a writing commit occasionally stamps its orecs with an un-advanced \
       clock value (under +tv, O(1) snapshot checks wrongly accept lines \
       changed since the snapshot)"
  | Redo_drop ->
      "a lazy-mode write barrier occasionally loses its store on the way \
       into the redo buffer (the transaction commits without it — lost \
       update; only fires under +lazy)"
  | Publish_partial ->
      "a lazy-mode writer commit occasionally publishes only the first \
       half of its redo log but still releases every orec with a fresh \
       version (the unpublished tail is silently lost; only fires under \
       +lazy)"
  | Crash_pre_commit ->
      "the process occasionally dies at commit entry, before any orec is \
       acquired or any WAL record written (recovery must show none of \
       the transaction's effects; only fires under +wal)"
  | Crash_mid_publish ->
      "the process occasionally dies halfway through writing back the \
       redo log (lazy) or after in-place stores but before the WAL \
       append (eager) — memory holds a partial/unlogged transaction that \
       recovery must discard (only fires under +wal)"
  | Crash_post_publish ->
      "the process occasionally dies right after the commit record is \
       fsynced and the commit acknowledged, before orecs are released \
       (recovery must replay the acknowledged transaction; only fires \
       under +wal)"
  | Crash_mid_checkpoint ->
      "the process dies halfway through writing a checkpoint record \
       (recovery must ignore the torn checkpoint and fall back to the \
       previous one plus the un-truncated log; fires at every \
       checkpoint under +wal)"
  | Torn_wal_record ->
      "an fsync occasionally tears mid-record: a byte prefix of the \
       commit record reaches the log and the process dies (recovery \
       must detect the torn tail via checksum/length framing and drop \
       it; only fires under +wal)"
  | Torn_tail_replayed ->
      "torn-wal-record's tear, with recovery seeded to replay the torn \
       tail record as if it were whole (the recovery oracle's self-test: \
       it must flag the result; only fires under +wal)"
  | Premature_reuse ->
      "a commit-time deferred free occasionally skips the grace period \
       and returns its block to the arena free lists immediately, so the \
       next same-class allocation recarves it while stale readers may \
       still hold pointers in (use-after-free the oracle must flag; only \
       fires under +ebr)"
