(** Structured fault injection for the robustness layer and the
    schedule-exploration checker.

    A {!Config.t} carries at most one injected fault ([Config.fault]);
    the STM probes the owning thread's PRNG at the fault's site, so
    misbehaviour is deterministic in (config, seed, schedule) and
    replayable.  Never enable outside tests. *)

type kind =
  | Skip_validation
      (** Validation always succeeds; per-read timestamp checks skipped.
          The original [bug_skip_validation] checker canary. *)
  | Blind_rescue
      (** Validation's value-checked rescue adopts a moved orec's word
          without comparing the logged value with memory, so a commit to
          the very word read passes as a line-mate's. *)
  | Stale_read
      (** Read barrier occasionally trusts a post-window orec version for
          a pre-window value (TOCTOU). *)
  | Delayed_unlock
      (** Commit occasionally holds write locks for extra cycles. *)
  | Spurious_abort  (** Barriers occasionally conflict for no reason. *)
  | Alloc_log_drop
      (** Allocations occasionally left out of the capture log. *)
  | Clock_stall
      (** Commit occasionally stamps orecs without advancing the global
          version clock (breaks +tv snapshot checks). *)
  | Redo_drop
      (** Lazy-mode write barrier occasionally drops the store on the way
          into the redo buffer: the transaction commits without it (lost
          update).  Site only exists under [+lazy]. *)
  | Publish_partial
      (** Lazy-mode writer commit occasionally publishes only the first
          half of its redo log yet releases every acquired orec with a
          fresh version — the tail is silently lost while readers see
          new versions.  Site only exists under [+lazy]. *)
  | Crash_pre_commit
      (** Process dies at commit entry: no orec acquired, no WAL record.
          Recovery must show none of the transaction's effects.  Site
          only exists under [+wal]. *)
  | Crash_mid_publish
      (** Process dies halfway through redo write-back (lazy) or after
          in-place stores but before the WAL append (eager): memory
          holds a partial/unlogged transaction recovery must discard.
          Site only exists under [+wal]. *)
  | Crash_post_publish
      (** Process dies right after the commit record is fsynced (the
          commit is acknowledged durable) but before orec release:
          recovery must replay it.  Site only exists under [+wal]. *)
  | Crash_mid_checkpoint
      (** Process dies mid-checkpoint, leaving a torn checkpoint record:
          recovery must fall back to the previous checkpoint plus the
          un-truncated log.  Fires at every checkpoint under [+wal]. *)
  | Torn_wal_record
      (** An fsync tears mid-record: a byte prefix of a commit record
          reaches the log and the process dies.  Recovery must drop the
          torn tail.  Site only exists under [+wal]. *)
  | Torn_tail_replayed
      (** {!Torn_wal_record}'s tear at its site and rate, with recovery
          seeded to replay the torn tail record as if it were whole
          ([Wal.recover ~bug_apply_torn]): the recovery oracle's
          self-test, as {!Skip_validation} is the opacity oracle's. *)
  | Premature_reuse
      (** A commit-time deferred free occasionally bypasses the limbo
          list and frees immediately, so the next same-class allocation
          recarves the block while stale readers may still hold pointers
          in (use-after-free).  Site only exists under [+ebr]. *)

val all : kind list
val name : kind -> string
val names : string list
val of_name : string -> kind option

val is_crash : kind -> bool
(** Crash-point faults kill the simulated process at their site (their
    sites require [Config.durable]); all other faults corrupt a
    still-running one. *)

(** What the robustness layer promises per fault: [Contained] faults are
    absorbed (runs stay correct — abort+retry, degraded elision, or
    wasted cycles only); [Flagged] faults break opacity and the checker
    oracle must report them. *)
type expectation = Contained | Flagged

val expectation : kind -> expectation

val rate : kind -> int
(** Percent chance per opportunity (100 for {!Skip_validation} and
    {!Blind_rescue}). *)

val describe : kind -> string
