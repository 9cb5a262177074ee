(** Structured fault injection for the robustness layer and the
    schedule-exploration checker.

    A {!Config.t} carries at most one injected fault ([Config.fault]);
    the STM probes the owning thread's PRNG at the fault's site, so
    misbehaviour is deterministic in (config, seed, schedule) and
    replayable.  Never enable outside tests. *)

type kind =
  | Skip_validation
      (** Read-set validation always reports success and per-read
          timestamp checks are skipped, so lost updates slip through.
          The original [bug_skip_validation] checker canary. *)
  | Blind_rescue
      (** Validation rescues a read whose orec moved without checking
          that memory still holds the logged value, so a commit to the
          very word read passes as a line-mate's. *)
  | Stale_read
      (** A read barrier occasionally opens a window between the value
          load and the version log and trusts the post-window version
          (TOCTOU: a stale value can pass commit validation). *)
  | Delayed_unlock
      (** A writing commit occasionally burns extra cycles before
          releasing its orecs.  Waiters that own an orec, or whose read
          log is too short to be worth waiting for, spin out and
          self-abort; a waiter with a long log and no orec may wait the
          delay out ({!Costs.spin_limit}).  Correctness is unaffected. *)
  | Spurious_abort
      (** Barriers occasionally raise a conflict out of thin air; the
          retry machinery must absorb it. *)
  | Alloc_log_drop
      (** Transactional allocations are occasionally left out of the
          capture log: elision is lost and the accesses fall back to full
          barriers (the conservative direction). *)
  | Clock_stall
      (** A writing commit occasionally stamps its orecs with an
          un-advanced clock value, so under [+tv] the O(1) snapshot checks
          wrongly accept lines changed since the snapshot. *)
  | Redo_drop
      (** A lazy-mode write barrier occasionally loses its store on the
          way into the redo buffer: the transaction commits without it
          (lost update).  Site only exists under [+lazy]. *)
  | Publish_partial
      (** A lazy-mode writer commit occasionally publishes only the first
          half of its redo log yet releases every acquired orec with a
          fresh version — the unpublished tail is silently lost while
          readers see new versions.  Site only exists under [+lazy]. *)
  | Crash_pre_commit
      (** The process occasionally dies at commit entry, before any orec
          is acquired or any WAL record written.  Recovery must show none
          of the transaction's effects.  Site only exists under
          [+wal]. *)
  | Crash_mid_publish
      (** The process occasionally dies halfway through redo write-back
          (lazy) or after in-place stores but before the WAL append
          (eager): memory holds a partial/unlogged transaction recovery
          must discard.  Site only exists under [+wal]. *)
  | Crash_post_publish
      (** The process occasionally dies right after the commit record is
          fsynced (the commit is acknowledged durable) but before orec
          release: recovery must replay it.  Site only exists under
          [+wal]. *)
  | Crash_mid_checkpoint
      (** The process dies halfway through writing a checkpoint record:
          recovery must ignore the torn checkpoint and fall back to the
          previous checkpoint plus the un-truncated log.  Fires at every
          checkpoint under [+wal]. *)
  | Torn_wal_record
      (** An fsync occasionally tears mid-record: a byte prefix of a
          commit record reaches the log and the process dies.  Recovery
          must detect the torn tail by its checksum/length framing and
          drop it.  Site only exists under [+wal]. *)
  | Torn_tail_replayed
      (** {!Torn_wal_record}'s tear at its site and rate, with recovery
          seeded to replay the torn tail record as if it were whole
          ([Wal.recover ~bug_apply_torn]): the recovery oracle's
          self-test, as {!Skip_validation} is the opacity oracle's.  The
          oracle must flag the result. *)
  | Premature_reuse
      (** A commit-time deferred free occasionally skips the grace period
          and returns its block to the arena free lists immediately, so
          the next same-class allocation recarves it while stale readers
          may still hold pointers in (use-after-free the oracle must
          flag). *)

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

