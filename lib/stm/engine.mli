(** World setup and thread execution.

    A [world] is one application instance: one word-addressed memory
    carved into a global region (shared data built at init time),
    per-thread stacks and per-thread allocator arenas, plus the
    system-wide ownership-record table.  Threads then execute either on
    simulator fibers (deterministic virtual time — the multithread
    experiments) or on real domains (wall-clock — the single-thread
    experiments). *)

type world

val create :
  ?global_words:int ->
  ?stack_words:int ->
  ?arena_words:int ->
  nthreads:int ->
  Config.t ->
  world
(** Defaults: 256 Ki global words, 16 Ki stack words and 256 Ki arena
    words per thread.  These sizes reserve address space only: the memory
    is demand-paged ({!Captured_tmem.Memory}), so a world costs heap for
    the chunks its set-up and run write, not for what it reserves. *)

val memory : world -> Captured_tmem.Memory.t
val global_arena : world -> Captured_tmem.Alloc.t
(** Arena for init-time shared data (single-threaded use only). *)

val arena_of : world -> int -> Captured_tmem.Alloc.t
val orecs : world -> Orec.t

val clock : world -> int
(** Current value of the world's global version clock (0 until the first
    writing commit under [Config.tvalidate]). *)

(** {2 Durable transactions} *)

val attach_wal : world -> Wal.t -> unit
(** Attach the write-ahead-log device and write the baseline checkpoint
    (current memory + allocator state), so recovery always has a root.
    Call after init-time setup, before running threads; threads made
    afterwards log their commits to it when [Config.durable] is set. *)

val wal : world -> Wal.t option

val checkpoint : world -> unit
(** Snapshot memory + all arenas into the log and truncate behind it
    (no-op without an attached WAL).  Under the
    [Fault.Crash_mid_checkpoint] fault this tears the checkpoint record
    and raises {!Wal.Crashed} — recovery must fall back to the previous
    checkpoint. *)

type result = {
  per_thread : Stats.t array;
  stats : Stats.t;  (** merged over threads *)
  makespan : int;
      (** simulated runs: virtual cycles (largest per-thread finish);
          native runs: nanoseconds of the slowest domain's wall span *)
  wall : float;  (** host seconds, whole run *)
  per_thread_wall : float array;
      (** native runs: per-domain wall seconds; all zero on simulated
          runs (virtual time lives in [makespan]) *)
  resident_words : int;
      (** the world's memory footprint after the run:
          {!Captured_tmem.Memory.resident_words} *)
}

(** [run_sim ?control ?max_cycles ?seed world body] executes [body thread]
    for each of the world's logical threads on simulator fibers.
    Deterministic for a fixed [seed].  [control] switches the scheduler to
    controlled mode (see {!Captured_sim.Sched.run}) for systematic
    schedule exploration; [max_cycles] bounds every thread's virtual
    clock ({!Captured_sim.Sched.Budget_exceeded}). *)
val run_sim :
  ?control:Captured_sim.Sched.control ->
  ?max_cycles:int ->
  ?seed:int ->
  world ->
  (Txn.thread -> unit) ->
  result

(** [run_native ?seed world body] executes on real domains (thread 0 runs
    on the calling domain; each other thread is built and run inside its
    own spawned domain).  With [nthreads = 1] this measures pure
    single-thread STM cost — the paper's Figure 10 setting; with more it
    is a real parallel run whose stats are collected race-free at join. *)
val run_native : ?seed:int -> world -> (Txn.thread -> unit) -> result

(** [setup_thread world] builds a thread context bound to thread 0 on the
    native platform without running anything — for tests and examples that
    want direct control. *)
val setup_thread : ?seed:int -> world -> Txn.thread
