(** Exploration harness: run workloads under controlled schedules and
    check every run with the opacity oracle. *)

module Config = Captured_stm.Config
module Sched = Captured_sim.Sched

exception Step_budget_exceeded

type run = {
  trace : Strategy.trace;
  violation : Oracle.violation option;
  truncated : bool;  (** hit the step budget; not oracle-checked *)
  crashed : bool;
      (** the run ended in an injected process death
          ({!Captured_stm.Wal.Crashed}); [violation] is the recovery
          oracle's verdict *)
  commits : int;
  aborts : int;
  events : int;
  dfrees : int;
      (** [Ev_free] events observed — reclaim sweeps use it as a
          vacuity signal (a cell that never freed proves nothing) *)
  forwarded : int;
      (** forwarded reads of a completed run (0 for truncated or crashed
          ones) — checked against {!Workloads.min_forwarded} *)
}

(** Oracle strictness a configuration has earned: [All_attempts] under
    per-read validation (+tv) or pessimistic reads, else
    [Committed_only]. *)
val strictness_for : Config.t -> Oracle.strictness

(** [run_one ~workload ~config control] prepares a fresh world, runs it
    under [control] and replays the history through the oracle.
    Deterministic in (workload, config, seed, control).

    Durable configurations ([Config.durable]) get a fresh WAL device
    attached before the run.  A run ending in an injected crash
    ({!Captured_stm.Wal.Crashed}) is judged by the recovery oracle
    alone; a clean durable run is additionally crash-replayed in full
    (recover-and-compare on every run) and finished with a checkpoint —
    which, under [Fault.Crash_mid_checkpoint], tears and forces a
    second recovery from the previous checkpoint.  [wal_bug] enables
    the seeded apply-the-torn-tail recovery bug (ddmin self-test). *)
val run_one :
  ?seed:int ->
  ?max_steps:int ->
  ?record_detail:bool ->
  ?wal_bug:bool ->
  workload:Workloads.t ->
  config:Config.t ->
  Sched.control ->
  run

type found = {
  violation : Oracle.violation;
  interventions : (int * int) list;
  minimized : (int * int) list;  (** ddmin-shrunk reproducer *)
}

type report = {
  workload : string;
  config : string;
  strategy : string;
  runs : int;
  distinct : int;
      (** schedules whose choice-sequence hash was not already in the
          shared [seen] table *)
  truncated : int;
  crashes : int;  (** runs ending in an injected process death *)
  violations : int;
  first : found option;
  max_events : int;
  total_commits : int;
  total_dfrees : int;  (** deferred frees summed over the runs *)
  total_forwarded : int;  (** forwarded reads summed over the runs *)
}

(** [explore ~workload ~config ~strategy ()] runs one strategy's budget
    of schedules.  [seen] (shared across calls) makes [distinct] count
    union-distinct schedules per workload × config.  The first violation
    is minimized with ddmin unless [minimize:false]. *)
val explore :
  workload:Workloads.t ->
  config:Config.t ->
  strategy:Strategy.kind ->
  ?runs:int ->
  ?seed:int ->
  ?max_steps:int ->
  ?minimize:bool ->
  ?wal_bug:bool ->
  ?seen:(int, unit) Hashtbl.t ->
  unit ->
  report

val report_to_string : report -> string
