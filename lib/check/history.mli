(** Totally ordered event log of one simulated run.

    The cooperative scheduler interleaves fibers on one host thread, so
    the order in which {!Captured_stm.Txn} events reach the tracer is a
    total order consistent with the run's memory-effect order — exactly
    the history the opacity oracle replays. *)

module Txn = Captured_stm.Txn

type entry = { seq : int; tid : int; ev : Txn.event }

type t

val create : unit -> t
val record : t -> tid:int -> Txn.event -> unit
val length : t -> int
val iter : t -> (entry -> unit) -> unit

(** [attach t] installs a tracer appending every event to [t];
    [detach ()] restores the no-op tracer.  Global, one at a time. *)
val attach : t -> unit

val detach : unit -> unit
