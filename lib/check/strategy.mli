(** Exploration strategies for the controlled scheduler.

    A {e schedule} is identified by what it does at each decision point
    (see {!Captured_sim.Sched.control}); it is recorded as the list of
    {e interventions} — decision points where the choice deviated from
    the deterministic default policy — so any schedule replays from its
    intervention list alone, and delta debugging shrinks that list. *)

module Sched = Captured_sim.Sched

type t =
  | Random
      (** Seeded random walk; {!persist}% chance to keep running at each
          consume point. *)
  | Pct
      (** PCT-style priority scheduling with [pct_depth - 1]
          priority-change points (detects bugs of preemption depth
          {!pct_depth}). *)
  | Dfs
      (** Bounded exhaustive search: every schedule reachable with at
          most {!dfs_preemptions} preemptions at consume points. *)

val persist : int
(** The random walk's percent chance to keep the running fiber at a
    consume point. *)

val pct_depth : int
(** The bug depth PCT targets. *)

val dfs_preemptions : int
(** The DFS preemption bound. *)

val name : t -> string

(** {2 Trace recording} *)

type decision = {
  d_point : Sched.point;
  d_current : int;
  d_ready : int array;
  d_chosen : int;
}

type trace

val new_trace : ?record_detail:bool -> unit -> trace
val steps : trace -> int

val hash : trace -> int
(** Hash of the full chosen sequence — the schedule's identity for
    distinct-schedule counting. *)

val interventions : trace -> (int * int) list
(** Deviations from the default policy, in decision order, as
    [(decision index, chosen fiber)]. *)

val detail : trace -> decision array
(** Every decision, in order; empty unless [record_detail] was set. *)

val instrument : trace -> Sched.control -> Sched.control

(** {2 Controls} *)

val random_control : seed:int -> persist:int -> Sched.control
val pct_control : seed:int -> nthreads:int -> depth:int -> length:int -> Sched.control

(** [replay_control ~interventions ()] replays a schedule from its
    intervention list; unprescribed points follow the default policy, and
    prescriptions naming a non-ready fiber degrade to the default. *)
val replay_control : ?interventions:(int * int) list -> unit -> Sched.control

val interventions_to_string : (int * int) list -> string
