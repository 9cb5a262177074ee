(** Workloads for schedule exploration: micro workloads with tiny worlds
    (the harness snapshots memory before every run) plus an adapter for
    the registered STAMP apps. *)

module Config = Captured_stm.Config
module App = Captured_apps.App

type t = {
  name : string;
  nthreads : int;
  reclaim_oracle : bool;
      (** arm the oracle's use-after-free rule even without
          [Config.ebr] — set by workloads whose frees deliberately race
          readers; app workloads coordinate their frees themselves *)
  floors : Signal.t list;
      (** vacuity floors: a sweep cell must record each listed signal at
          least once — {!reread} forwarded and line-mate reads,
          {!linemate} value rescues and line-mate reads, {!rollback}
          line-mate reads, {!longread} extended lock waits, {!rfw}
          read-for-write acquisitions, the reclaim
          pair deferred frees; no other workload lists one *)
  prepare : Config.t -> App.prepared;
}

val counter : nthreads:int -> incs:int -> t
(** Shared-counter increments — the minimal lost-update shape. *)

val bank : nthreads:int -> accounts:int -> transfers:int -> t
(** Random transfers conserving the total; user-aborts on overdraft. *)

val publish : nthreads:int -> nodes:int -> t
(** Transactionally allocate + initialise (captured, elidable writes)
    then publish to a shared list — the paper's claim end to end. *)

val scoped : nthreads:int -> incs:int -> t
(** Closed nesting with partial aborts. *)

val zombie :
  name:string -> spin:(Captured_stm.Txn.tx -> int -> unit) -> nthreads:int ->
  rounds:int -> t
(** A writer keeps two cells on distinct orecs equal; a reader that sees
    them differ (only an inconsistent snapshot can) runs [spin tx b] up
    to 10,000 times, [b] being the second cell.  The validation fuel
    every transactional operation burns must abort it well before that
    in every schedule.  {!micros} holds three: [zombie] spins in
    [tx_work], [zombie_reread] re-reads [b] (forwarded from the read
    log), [zombie_owned] read-modify-writes [b] (an owned orec, or under
    [+lazy] a redo-buffer hit). *)

val reread : nthreads:int -> rounds:int -> t
(** Readers re-read cells on a shared line and on a distinct one while a
    writer commits between the reads, so read-after-read forwarding
    runs against concurrent commits; the cells hold distinct values, so
    a read answered for the wrong address breaks the invariant. *)

val linemate : nthreads:int -> rounds:int -> t
(** Threads read-modify-write different words of one conflict-detection
    line while others read a line-mate between two reads of a shared
    total: a peer's commit moves the orec under a read whose word it did
    not write, which validation must rescue, and under a read whose word
    it did write, which validation must reject. *)

val recordmix : nthreads:int -> rounds:int -> t
(** Record mix: a record block (one orec per word) and an array block
    (one orec per 4-word line) carved back to back; each thread updates
    two adjacent record words its neighbours also write and one word of
    the array's shared line, keeping the two blocks' sums equal. *)

val longread : nthreads:int -> rounds:int -> t
(** Long reads: each transaction reads a 16-cell block (one orec per
    cell), then increments a hot cell and one block cell, keeping the
    block's sum equal to the hot cell.  A reader blocked on a lock has a
    long read log and owns no orec, so it may wait past
    [Costs.spin_limit] spins, or be found doomed at that mark. *)

val rfw : nthreads:int -> rounds:int -> t
(** Read-for-write: every transaction increments two cells on distinct
    orecs through {!Captured_stm.Txn.read_for_write_at}, some after a
    plain read of the first (the already-logged fallback), while other
    transactions read both cells and record their difference.  The
    cells end equal to the number of increments, and every difference
    recorded is 0. *)

val rollback : nthreads:int -> rounds:int -> t
(** Rollback: a writer stores a value in place, then aborts, while
    readers read its cell fresh and as a line-mate of a cell they read
    first, and record the difference of the two cells (0 in every
    committed state).  A reader that admits the aborted value is an
    opacity violation: an eager abort must not hand back the orec word
    the reader logged. *)

val micros : nthreads:int -> t list
(** The thirteen micro workloads at smoke-test sizes. *)

val free_race : nthreads:int -> rounds:int -> t
(** Publish / retract-with-deferred-free / recycle-same-class against
    racing readers: without [+ebr] the recycler recarves the block a
    reader still points into (use-after-free the oracle flags); with
    [+ebr] reuse waits out the readers in limbo. *)

val privatize_race : nthreads:int -> rounds:int -> t
(** Transactional detach + {!Captured_stm.Txn.privatize} + raw mutation
    against speculative writers that always roll back: without [+ebr]
    the quiescence fence is a no-op and an abort's undo can clobber the
    raw store (app-verify red); with [+ebr] every round's update
    survives. *)

val reclaim_micros : nthreads:int -> t list
(** [free_race] and [privatize_race] at smoke-test sizes — kept out of
    {!micros} because they are red by design without [+ebr]. *)

val find : string -> nthreads:int -> t option
(** Look up a micro workload (by base name, e.g. ["counter"]) or a
    registry app (by exact name; a STAMP app runs at [Test] scale and
    loads compiler verdicts like {!App.run}). *)
