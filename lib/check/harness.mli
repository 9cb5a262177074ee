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
  events : int;
  signals : int array;
      (** one count per {!Signal.all} row, each read by its row *)
}

(** [run_one ~workload ~config control] prepares a fresh world, runs it
    under [control] and replays the history through the oracle.
    Deterministic in (workload, config, seed, control).

    Durable configurations ([Config.durable]) get a fresh WAL device
    attached before the run.  A run ending in an injected crash
    ({!Captured_stm.Wal.Crashed}) is judged by the recovery oracle
    alone; a clean durable run is additionally crash-replayed in full
    (recover-and-compare on every run) and finished with a checkpoint —
    which, under [Fault.Crash_mid_checkpoint], tears and forces a
    second recovery from the previous checkpoint.  Under
    [Fault.Torn_tail_replayed] recovery replays a torn tail record as
    if it were whole (the recovery oracle's self-test). *)
val run_one :
  ?seed:int ->
  ?max_steps:int ->
  ?record_detail:bool ->
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
  signals : int array;  (** [run.signals] summed over the runs *)
}

(** [explore ~workload ~config ~strategy ()] runs one strategy's budget
    of schedules.  [seen] (shared across calls) makes [distinct] count
    union-distinct schedules per workload × config.  The first violation
    is minimized with ddmin unless [minimize:false]. *)
val explore :
  workload:Workloads.t ->
  config:Config.t ->
  strategy:Strategy.t ->
  ?runs:int ->
  ?seed:int ->
  ?max_steps:int ->
  ?minimize:bool ->
  ?seen:(int, unit) Hashtbl.t ->
  unit ->
  report

val report_to_string : report -> string

(** {1 Sweep cells}

    Every checker sweep runs through one cell loop: a cell is a workload
    under one configuration (whose [Config.fault] is the cell's fault),
    explored by each strategy in turn. *)

type cell = {
  workload : Workloads.t;
  config : Config.t;
  reports : report list;  (** one per strategy × world seed, in run order *)
  union : int;  (** distinct schedules across [reports] *)
}

(** [world_seeds ~seed config] — [[seed]], or five seeds spaced by 31
    for a durable config: crash faults draw from the thread PRNG, so
    whether a commit crashes depends on the world seed, not the
    schedule. *)
val world_seeds : seed:int -> Config.t -> int list

(** [run_cell ~strategies ~runs ~seed ~workload ~config ()] explores the
    cell with each strategy over {!world_seeds}, [runs] split evenly
    across the seeds, all sharing one [seen] table.  [on_report] sees
    each report as it lands, with the cell's union so far. *)
val run_cell :
  ?max_steps:int ->
  ?on_report:(report -> union:int -> unit) ->
  strategies:Strategy.t list ->
  runs:int ->
  seed:int ->
  workload:Workloads.t ->
  config:Config.t ->
  unit ->
  cell

(** [verdict cells] judges a sweep.  Every cell must have no truncated
    run and meet its floors: at least one injected crash under a crash
    fault, one count of each of its workload's {!Workloads.t.floors}
    signals, and — fault-free cells only — [min_distinct] (default 0)
    distinct schedules.  The cells of each fault are then judged by
    {!Captured_stm.Fault.expectation}: fault-free and [Contained] cells
    must show no violation, [Flagged] ones at least one and no exception
    escaping a fiber.  [Ok notes] lists each flagged catch; [Error]
    lists every failure. *)
val verdict :
  ?min_distinct:int ->
  cell list ->
  (string list, string list) result
