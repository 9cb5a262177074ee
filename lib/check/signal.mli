(** Coverage signals: what a run exercised of the path a sweep cell
    claims to check.  A cell below one of its workload's floors
    ({!Workloads.t.floors}) proved nothing, whatever the oracle said. *)

type t = {
  label : string;  (** floor failures: ["deferred frees"] *)
  key : string;  (** text report and JSON key: ["dfrees"] *)
  read : History.t -> Captured_stm.Stats.t option -> int;
      (** one run's count, from its history and — [None] for a
          truncated or crashed run — its stats *)
}

val dfrees : t
(** [Ev_free] events in the history, on every outcome. *)

val forwarded : t
(** [Stats.reads_forwarded]. *)

val line_mate : t
(** [Stats.reads_line_mate]: reads under an orec already in the read
    log, proved by one orec load. *)

val rescued : t
(** [Stats.value_rescues]. *)

val extended : t
(** [Stats.waits_extended]: lock waits past [Costs.spin_limit]. *)

val rfw : t
(** [Stats.rfw_acquires]: orecs a read-for-write acquired, on both
    engines. *)

val all : t array
(** The table, in report order; counts are arrays aligned with it. *)

val keyed : int array -> (string * int) list
(** Counts aligned with {!all}, each paired with its row's [key]. *)
