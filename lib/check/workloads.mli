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

val zombie_spins : int
(** Spin iterations after which a zombie workload gives up and reports
    that no guard aborted it (sound guards fire within a few hundred). *)

val zombie_loop : nthreads:int -> rounds:int -> t
(** A reader spins in [tx_work] on a condition only an inconsistent
    snapshot satisfies; the validation-fuel budget (armed by [prepare] when the
    config leaves it off) must terminate it in every schedule. *)

val zombie_reread : nthreads:int -> rounds:int -> t
(** The same zombie, spinning on re-reads of an address it already read
    and with fuel left as the config has it: the re-reads are forwarded
    from the read log, and the periodic validation guard they still
    count toward must terminate the spin in every schedule. *)

val reread : nthreads:int -> rounds:int -> t
(** Readers re-read cells on a shared line and on a distinct one while a
    writer commits between the reads, so read-after-read forwarding
    runs against concurrent commits; the cells hold distinct values, so
    a read answered for the wrong address breaks the invariant. *)

val min_forwarded : t -> int
(** Vacuity floor: the forwarded reads a sweep cell of this workload
    must record — 1 for {!reread}, 0 for every other workload. *)

val micros : nthreads:int -> t list
(** The seven micro workloads at smoke-test sizes. *)

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

val of_app : ?scale:App.scale -> App.t -> nthreads:int -> t
(** A registered STAMP app as a workload ([Test] scale by default);
    handles compiler-verdict loading like {!App.run}. *)

val find : string -> nthreads:int -> t option
(** Look up a micro workload (by base name, e.g. ["counter"]) or a
    registry app (by exact name). *)
