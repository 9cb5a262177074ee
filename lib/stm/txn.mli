(** Transactions: the per-thread descriptor, barriers with capture
    analysis, nesting.

    Each thread owns one transaction descriptor (paper §3.1.2): the read
    log, the write set ({!Write_set}) and its nested-scope journal, the
    acquired orecs and the stack of nested scopes, each scope with its own allocation log.  The logs are
    allocated with the thread and reset by every top-level begin; a
    transaction runs exactly while its scope stack is non-empty.

    Reads are optimistic and invisible (Intel C++ STM / McRT style, paper
    §2.1): a read barrier logs the orec version it observed, validated at
    commit and, as a zombie guard, whenever the attempt's validation
    fuel ({!Costs.fuel_budget} operations) runs out.  A re-read of an address
    the attempt already read is answered from the read log while memory
    still holds the logged value ({!Stats.t.reads_forwarded}).  Writes
    take one of two
    versioning modes ({!Config.t.lazy_versioning}):

    - eager (default): a write barrier acquires the orec, logs the old
      value in the write set (unless the address is already there) and
      stores in place;
    - lazy: a write barrier buffers the value in the write set; commit
      acquires the write set's orecs, then publishes it.

    Validation runs under one of two clocks ({!Config.clock}): [Scan]
    (full read-set scans, per-record version bumps) or [Global] (shared
    version clock, O(1) snapshot checks).  Every commit goes through one
    sequence:
    lazy acquire, read-only fast path, per-clock validation, serialize
    (publish, WAL append, commit event), release, then the fsync a
    group-completing WAL append owes.  A barrier that finds an orec
    locked spins {!Costs.spin_limit} times, or, in an attempt that owns
    no orec and has a long read log, up to that log's redo break-even.
    Conflicts abort the requester, which retries after a capped
    exponential backoff ({!Costs.backoff}), cut short once the orec
    whose lock made it give up is released.

    Every barrier first runs the capture analysis configured in
    {!Config.t} (paper Figure 2): accesses proven captured go straight to
    memory.  Closed nesting supports partial abort: a nested scope
    checkpoints the undo log, allocation log and stack mark, and capture
    questions are answered relative to the innermost scope, so
    outer-transaction-local data is still undo-logged inside a child
    (paper §2.2.1). *)

module Memory = Captured_tmem.Memory
module Site = Captured_core.Site

exception Retry_conflict
(** Internal conflict signal; escapes only if raised outside a
    transaction. *)

exception User_abort
(** Raised by {!abort}; propagates out of {!atomic} after rollback. *)

type thread
(** Per-logical-thread context: stack, arena, stats, private log, RNG,
    the platform (native or simulated) and the thread's transaction
    descriptor. *)

type tx
(** The running transaction: the thread's own descriptor, seen from
    inside {!atomic}.  It is typed apart from {!thread}, so barriers take
    only what {!atomic} hands its body, and plain code takes only the
    thread. *)

val create_thread :
  tid:int ->
  platform:Captured_sim.Platform.t ->
  memory:Memory.t ->
  stack:Captured_tmem.Tstack.t ->
  arena:Captured_tmem.Alloc.t ->
  orecs:Orec.t ->
  config:Config.t ->
  ?wal:Wal.t ->
  ?reclaim_shared:Reclaim.shared ->
  seed:int ->
  unit ->
  thread
(** Threads that run transactions concurrently on one orec table need
    distinct [tid]s: an orec locked with a thread's id is that thread's
    to read and write.  [tid] must be below {!Stats.max_tids}, the bound
    the conflict-pair key packs tids into; raises [Invalid_argument]
    otherwise.  [wal] attaches the world's write-ahead log device; it
    only takes effect when [config.durable] is set.  [reclaim_shared] links this thread into the world's epoch-based
    reclamation state (announcement slot = [tid]); it only takes effect
    when [config.ebr] is set. *)

(** {2 Atomic blocks} *)

(** [atomic th f] runs [f tx] with single-lock-atomicity semantics,
    retrying on conflict.  Called inside a transaction it opens a nested
    scope with partial-abort support. *)
val atomic : thread -> (tx -> 'a) -> 'a

(** [abort tx] — user abort: rolls back the innermost atomic scope and
    raises {!User_abort} from its [atomic]. *)
val abort : tx -> 'a

(** [restart tx] — abort the whole transaction and retry it (STAMP's
    [TM_RESTART]). *)
val restart : tx -> 'a

(** {2 Barriers} *)

(** [read_at ~site tx addr] — transactional load.  [site] identifies the
    static access site.  The label is required, not optional: with
    cross-module inlining off (dune's dev profile) an optional argument
    would box [Some site] on every barrier call. *)
val read_at : site:Site.id -> tx -> Memory.addr -> int

val write_at : site:Site.id -> tx -> Memory.addr -> int -> unit

(** [read_for_write_at ~site tx addr] — the read of a read-modify-write
    (the TM ABI's read-for-write barrier): as {!read_at}, but it acquires
    the orec at the read, as the eager {!write_at} would, and logs no
    read.  One path serves both engines: the eager write that follows
    finds the orec owned, and under [+lazy] the write buffers as usual
    while the orec stays held to commit, whose acquisition skips it.
    Use it only where a {!write_at} to [addr] follows on every path that
    does not abort: an acquisition without its write is a lock held, and
    a false conflict raised, for nothing.  A data structure whose update
    may find nothing to change (a pop from an empty queue or heap)
    writes the word back unchanged to keep that contract.  Read the
    other words the update needs first, so the lock is not held across
    their reads ([Tqueue.pop] acquires [pop] last).  An orec the attempt
    has already read takes the plain read path. *)
val read_for_write_at : site:Site.id -> tx -> Memory.addr -> int

(** [read tx addr] — {!read_at} at the anonymous catch-all site. *)
val read : tx -> Memory.addr -> int

val write : tx -> Memory.addr -> int -> unit

(** {2 Transactional allocation} *)

(** [alloc tx n] — transaction-safe malloc: freed automatically if the
    transaction aborts, logged for capture analysis. *)
val alloc : tx -> int -> Memory.addr

(** [free tx addr] — transaction-safe free: immediate for blocks this
    scope allocated, deferred to commit otherwise. *)
val free : tx -> Memory.addr -> unit

(** [alloca tx n] — stack allocation inside the transaction (captured). *)
val alloca : tx -> int -> Memory.addr

(** {2 Annotation API (paper Figure 7)} *)

(** [add_private_block th ~addr ~size] marks [\[addr, addr+size)] safe
    for barrier-free access by [th] until removed; the annotation
    persists across transactions.  Raises [Invalid_argument] if
    [size <= 0] or if the block overlaps one already annotated (the
    annotations are then unchanged). *)
val add_private_block : thread -> addr:Memory.addr -> size:int -> unit

val remove_private_block : thread -> addr:Memory.addr -> size:int -> unit

(** {2 Privatization ([Config.ebr])}

    The quiescence fence the reclamation layer provides: after
    {!quiesce} returns, every transaction attempt that was in flight
    when it was called has finished, so state a committed transaction
    detached beforehand can be accessed non-transactionally.  Without
    [+ebr] there is no epoch to wait on and both calls degrade to the
    (unsafe) pre-EBR behaviour — a no-op fence. *)

val quiesce : thread -> unit
(** Block (spinning through scheduling points) until the global epoch
    has advanced two grace periods past its value at entry.  Raises
    [Invalid_argument] if called inside a transaction — waiting on
    peers while holding reads is a deadlock by construction. *)

val privatize : thread -> addr:Memory.addr -> size:int -> unit
(** [privatize th ~addr ~size] — {!quiesce}, then annotate the block
    private ({!add_private_block}), after which raw access is safe:
    no in-flight reader survives the fence, and later transactions
    elide (and so never version-check) the privatized range. *)

(** {2 Plain (non-transactional) code} *)

val raw_read : thread -> Memory.addr -> int
val raw_write : thread -> Memory.addr -> int -> unit
val raw_alloc : thread -> int -> Memory.addr
val raw_free : thread -> Memory.addr -> unit

(** [work th c] charges [c] virtual cycles of pure computation (no-op on
    the native platform). *)
val work : thread -> int -> unit

(** [yield_hint th] lets other logical threads run (spin loops must call
    it so simulator fibers make progress). *)
val yield_hint : thread -> unit

(** [tx_work tx c] — as [work], from inside a transaction; like every
    transactional operation it burns one unit of validation fuel. *)
val tx_work : tx -> int -> unit

(** {2 Event tracing}

    Hook for the schedule-exploration checker ({!Captured_check}): when a
    tracer is installed, every barrier, allocation and transaction
    boundary reports an event carrying the value it moved.  The default is
    [None] and costs one ref load per barrier. *)

(** How the barrier treated the access: fully instrumented, elided by
    one of the capture-analysis verdicts (paper Figure 2), or — reads
    only — loaded directly at an init-only site
    ({!Captured_core.Site.declare}). *)
type access_class =
  | Instrumented
  | Elided_static
  | Elided_stack
  | Elided_heap
  | Elided_private
  | Elided_init

type event =
  | Ev_begin of { attempt : int }  (** top-level (re)start *)
  | Ev_read of { addr : int; value : int; cls : access_class }
  | Ev_write of { addr : int; value : int; cls : access_class }
  | Ev_alloc of { addr : int; size : int }
  | Ev_alloca of { addr : int; size : int }
  | Ev_free of { addr : int }
  | Ev_scope_begin  (** nested scope opened *)
  | Ev_scope_commit
  | Ev_scope_abort  (** nested scope rolled back (partial abort) *)
  | Ev_commit
      (** top-level commit serialized: validation passed and the write
          set is (or is about to be) published, but the acquired orecs
          are still held — the event fires before release *)
  | Ev_abort of { user : bool }  (** top-level rollback completed *)
  | Ev_raw_write of { addr : int; value : int }
      (** non-transactional store *)

(** [set_tracer (Some f)] routes every event to [f tid event]; [None]
    restores the free default.  Global — one tracer at a time. *)
val set_tracer : (int -> event -> unit) option -> unit
val thread_stats : thread -> Stats.t
val thread_id : thread -> int
val thread_stack : thread -> Captured_tmem.Tstack.t
val thread_prng : thread -> Captured_util.Prng.t
