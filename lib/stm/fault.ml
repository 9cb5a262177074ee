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

