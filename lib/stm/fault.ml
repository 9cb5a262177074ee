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

type expectation = Contained | Flagged

(* One row per kind.  [crash]: the fault kills the simulated process at
   its site instead of corrupting a still-running one; crash sites only
   exist when a WAL is attached ([Config.durable]).  [rate]: percent
   chance per opportunity.  [Skip_validation] is unconditional — it
   predates this registry as [bug_skip_validation] and the canary tests
   rely on every validation lying.  [Blind_rescue] is too: its site is
   already rare (a moved orec over a single-address entry), and it draws
   no PRNG, so its schedules match the fault-free ones up to the first
   blind adoption.  [Spurious_abort]'s site is every barrier, so its rate
   is kept low enough that transactions still commit within a few
   attempts.  Crash points take moderate rates so a few transactions
   usually land before the process dies, giving recovery a non-trivial
   log; [Crash_mid_checkpoint]'s only site is the explicit checkpoint
   call, so it fires every time.  Every row is a constant: the registry
   is static data. *)
type row = { name : string; crash : bool; expectation : expectation; rate : int }

let row = function
  | Skip_validation ->
      { name = "skip-validation"; crash = false; expectation = Flagged; rate = 100 }
  | Blind_rescue ->
      { name = "blind-rescue"; crash = false; expectation = Flagged; rate = 100 }
  | Stale_read ->
      { name = "stale-read"; crash = false; expectation = Flagged; rate = 50 }
  | Delayed_unlock ->
      { name = "delayed-unlock"; crash = false; expectation = Contained; rate = 50 }
  | Spurious_abort ->
      { name = "spurious-abort"; crash = false; expectation = Contained; rate = 4 }
  | Alloc_log_drop ->
      { name = "alloc-log-drop"; crash = false; expectation = Contained; rate = 50 }
  | Clock_stall ->
      { name = "clock-stall"; crash = false; expectation = Flagged; rate = 50 }
  | Redo_drop ->
      { name = "redo-drop"; crash = false; expectation = Flagged; rate = 50 }
  | Publish_partial ->
      { name = "publish-partial"; crash = false; expectation = Flagged; rate = 50 }
  | Crash_pre_commit ->
      { name = "crash-pre-commit"; crash = true; expectation = Contained; rate = 20 }
  | Crash_mid_publish ->
      { name = "crash-mid-publish"; crash = true; expectation = Contained; rate = 20 }
  | Crash_post_publish ->
      { name = "crash-post-publish"; crash = true; expectation = Contained; rate = 20 }
  | Crash_mid_checkpoint ->
      { name = "crash-mid-checkpoint"; crash = true; expectation = Contained; rate = 100 }
  | Torn_wal_record ->
      { name = "torn-wal-record"; crash = true; expectation = Contained; rate = 20 }
  | Torn_tail_replayed ->
      { name = "torn-tail-replayed"; crash = true; expectation = Flagged; rate = 20 }
  | Premature_reuse ->
      { name = "premature-reuse"; crash = false; expectation = Flagged; rate = 50 }

let name k = (row k).name
let is_crash k = (row k).crash
let expectation k = (row k).expectation
let rate k = (row k).rate
let names = List.map name all
let of_name s = List.find_opt (fun k -> name k = s) all
