(** Registry of static memory-access sites.

    Every transactional load/store in the workloads carries a site id —
    the analogue of one instrumented instruction the STM compiler emitted.
    Sites let the harness (a) classify dynamic barriers per static origin
    (Figure 8), and (b) transport compiler capture-analysis verdicts from
    the IR models onto natively-compiled code: the analysis marks a *site
    name* captured, and barriers at that site skip instrumentation, exactly
    as the Intel compiler would have emitted an unbarriered access.

    [manual] marks sites that STAMP's original hand instrumentation also
    barriered — the paper's estimate of *required* barriers; sites the
    OCaml analogue instruments beyond those model compiler
    over-instrumentation.

    [init_only] marks a read site whose words are written only while
    their block is captured by the writing attempt, or during set-up
    before any thread runs: from the block's publication until its
    free, the word cannot change, so the read barrier loads it directly
    (DESIGN.md, "Init-only reads"). *)

type id = private int

type meta = { name : string; write : bool; manual : bool; init_only : bool }

(** [declare ?manual ?init_only ~write name] registers a site; [name]
    must be unique.  [manual] defaults to true (assume required unless
    stated otherwise), [init_only] to false; [~init_only:true] on a write
    site raises [Invalid_argument].  Call at module initialisation,
    before threads run. *)
val declare : ?manual:bool -> ?init_only:bool -> write:bool -> string -> id

val anonymous_read : id
val anonymous_write : id
(** Catch-all sites (manual, never elided) for code outside the measured
    workloads. *)

val meta : id -> meta

(** [is_init_only id] is [(meta id).init_only], read on the barrier's hot
    path. *)
val is_init_only : id -> bool
val count : unit -> int
val find : string -> id option

(** {2 Compiler verdicts} *)

(** [reset_verdicts ()] clears all static-capture marks (run before loading
    a new application's analysis results). *)
val reset_verdicts : unit -> unit

(** [set_captured id] records that compiler capture analysis proved every
    execution of [id] accesses captured memory. *)
val set_captured : id -> unit

(** [set_captured_by_name name] — ignores unknown names (the IR model may
    contain sites the OCaml analogue lacks). *)
val set_captured_by_name : string -> unit

val is_captured_static : id -> bool

(** [set_shared id] records that compiler analysis proved every execution
    of [id] accesses definitely-shared memory (globals), so runtime
    capture checks there are pointless — the paper's §3.2/§6 future-work
    optimisation. *)
val set_shared : id -> unit

val set_shared_by_name : string -> unit
val is_shared_static : id -> bool
