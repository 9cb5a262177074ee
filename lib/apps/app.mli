(** Common shape of the STAMP workload analogues.

    Each application prepares a world (building its shared data in the
    global arena), exposes a per-thread transactional body, a post-run
    verifier of application-level invariants, and an IR model of its
    transactional routines for the compiler capture analysis. *)

module Config = Captured_stm.Config
module Engine = Captured_stm.Engine
module Txn = Captured_stm.Txn

(** Workload size: [Test] for unit tests, [Bench] for the reproduction
    harness (still laptop-scale), [Large] for longer runs. *)
type scale = Test | Bench | Large

type prepared = {
  world : Engine.world;
  body : Txn.thread -> unit;
  verify : unit -> (unit, string) result;
}

type t = {
  name : string;
  description : string;
  prepare : nthreads:int -> scale:scale -> Config.t -> prepared;
  model : Captured_tmir.Ir.program Lazy.t;
      (** IR model of the transactional routines; analyzed and applied
          before Compiler-configured runs. *)
}

(** [run app ~nthreads ~scale ~mode config] prepares and executes one run
    after {!load_verdicts}.  [`Sim seed] uses the simulator; [`Native]
    uses domains.  Raises [Failure] if [verify] fails. *)
val run :
  t ->
  nthreads:int ->
  scale:scale ->
  mode:[ `Sim of int | `Native ] ->
  Config.t ->
  Engine.result

(** [load_verdicts app config] resets the global site table, then, for
    [Config.Compiler] and for [Runtime] with [static_filter] (hybrid),
    analyzes the app's IR model and loads its capture verdicts.  [run]
    calls it first; harnesses that drive [prepare]/[Engine.run_sim]
    directly ({!Captured_check}) call it themselves. *)
val load_verdicts : t -> Config.t -> unit

(** As [run] but returns the verification error instead of raising.
    Durable configurations ([Config.durable]) get a fresh WAL device
    attached after [prepare] (so the baseline checkpoint snapshots the
    built world) and flushed after the run; [wal_dir] mirrors the
    durable log to [<wal_dir>/wal.log] for cross-process recovery
    ({!Captured_stm.Wal.recover_dir}).  [max_cycles] bounds every
    simulated thread's virtual clock
    ({!Captured_sim.Sched.Budget_exceeded}). *)
val run_checked :
  ?wal_dir:string ->
  ?max_cycles:int ->
  t ->
  nthreads:int ->
  scale:scale ->
  mode:[ `Sim of int | `Native ] ->
  Config.t ->
  (Engine.result, string) result
