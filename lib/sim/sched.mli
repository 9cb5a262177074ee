(** Deterministic cooperative multithread simulator.

    Each logical thread runs as an effect-handler fiber with a private
    virtual cycle clock.  The scheduler always resumes the fiber with the
    smallest virtual time (ties broken by thread id), preempting a running
    fiber once it gets [quantum] cycles ahead of the next-waiting one.  This
    models N cores executing in lock-step virtual time on a single real
    core: conflicts, aborts and barrier-cost ratios behave as they would
    under true concurrency, and every run is bit-reproducible.

    The virtual makespan (largest per-thread finish time) plays the role of
    wall-clock execution time in the 16-thread experiments. *)

type t
(** A completed simulation. *)

type ctx
(** Handle a fiber uses to interact with its scheduler. *)

(** Kind of scheduling decision point (controlled mode): [Consume_point] is
    a cycle charge inside straight-line code (the default policy continues
    the current fiber); [Yield_point] is an explicit reschedule request —
    a spin loop waiting for another fiber — where the default policy must
    switch away or spinning code would livelock. *)
type point = Consume_point | Yield_point

type control = ready:int array -> current:int -> point:point -> int
(** A scheduling strategy for controlled mode.  Called at every decision
    point with ≥ 2 runnable fibers: [ready] is the sorted ids of runnable
    fibers, [current] the fiber that just paused ([-1] if it finished),
    [point] the kind of pause.  Must return a member of [ready].  Decision
    points with a single runnable fiber resume it without consulting the
    control, so decision indices are stable across replays. *)

(** [run ?quantum ?max_cycles ?control ~threads ()] executes
    [threads.(i) ctx] for each [i] as a fiber and returns the completed
    simulation.  [quantum] (default 200) is the preemption grain in
    cycles.  [max_cycles] (default unbounded) is a budget on every
    fiber's virtual clock in default mode: a fiber that reaches it
    raises {!Budget_exceeded}, so a run that cannot finish (a walk round
    a cyclic structure, a spin nobody ends) fails at once instead of
    hanging.  A run that stays under the budget is scheduled exactly as
    without one.

    With [control] the scheduler runs in {e controlled mode}: virtual-time
    ordering and the quantum are ignored, every [consume] and [yield] with
    another runnable fiber suspends the caller, and [control] picks who
    runs next — the systematic-testing hook ({!Captured_check}). *)
val run :
  ?quantum:int ->
  ?max_cycles:int ->
  ?control:control ->
  threads:(ctx -> unit) array ->
  unit ->
  t

(** [consume ctx c] charges [c] virtual cycles to the calling fiber; may
    switch to another fiber. *)
val consume : ctx -> int -> unit

(** [yield ctx] charges one cycle and unconditionally reschedules; spinning
    code must call it so lock owners can make progress. *)
val yield : ctx -> unit

(** [self ctx] is the calling fiber's thread id (its index in [threads]). *)
val self : ctx -> int

(** [vtime ctx] is the calling fiber's current virtual time. *)
val vtime : ctx -> int

(** [makespan t] is the largest per-thread virtual finish time. *)
val makespan : t -> int

(** [thread_time t i] is thread [i]'s virtual finish time. *)
val thread_time : t -> int -> int

(** [switches t] counts context switches, a determinism check hook. *)
val switches : t -> int

exception Fiber_failure of int * exn
(** Raised by [run] if a fiber raises; carries the thread id and the
    original exception.  [Printexc.to_string] prints both. *)

exception Budget_exceeded of { tid : int; cycles : int }
(** Raised by [run] when fiber [tid]'s clock reaches the [max_cycles]
    budget; [cycles] is its clock then.  [Printexc.to_string] prints
    both. *)
