(** STM optimisation configuration — which capture-analysis technique the
    barriers apply, and where.

    The paper's evaluated systems map to:
    - [Baseline]: no capture analysis (write-after-write undo-log filtering
      stays on — the paper's baseline has those "cheap checks").
    - [Runtime backend]: the barrier first runs runtime capture analysis
      (Figure 2) with the given allocation-log backend; [scope] selects
      Figure 10/11's configurations (stack and/or heap checks, in read
      and/or write barriers).
    - [Compiler]: no runtime checks; barriers at sites the compiler
      analysis proved captured are replaced by direct accesses. *)

type analysis =
  | Baseline
  | Runtime of Captured_core.Alloc_log.backend
  | Compiler

type scope = {
  check_stack : bool;
  check_heap : bool;
  on_reads : bool;
  on_writes : bool;
}

type t = {
  analysis : analysis;
  scope : scope;
  fastpath : bool;
      (** Hierarchical capture-check fast path: run the
          empty-log/bounds-summary and MRU block-cache tiers in front of
          every allocation-log probe, and promote a saturated range array
          in place to a range tree instead of dropping precision.  Only
          meaningful with [Runtime]; semantics-preserving (conservatism is
          never violated). *)
  tvalidate : bool;
      (** Timestamp-based validation (TL2/LSA-style global version clock):
          commits stamp released orecs with a shared clock value; a
          transaction records a snapshot timestamp at begin; reads whose
          orec version is within the snapshot need no revalidation, newer
          versions trigger snapshot {e extension} (one full validation,
          then a fresh timestamp) instead of an abort.  [maybe_validate]
          becomes an O(1) clock compare, commit skips the read-set scan
          when the snapshot is current, and read-only transactions commit
          with no validation and no clock bump.  Works under every
          [analysis]; semantics-preserving. *)
  static_filter : bool;
      (** Skip runtime capture checks at sites the compiler proved
          definitely shared (the paper's §3.2/§6 future work); only
          meaningful with [Runtime]. *)
  audit : bool;
      (** Maintain a precise side tree and classify every instrumented
          access (Figure 8 measurement mode); independent of elision. *)
  orec_bits : int;
      (** log2 of the ownership-record table size (default 17: one word
          per record, 1 MiB). *)
  array_capacity : int;
  cm : Cm.policy;
      (** Contention-management policy for the retry loop ([+cm:<name>]
          suffix; [Backoff] — the default — is suffix-free and reproduces
          the pre-CM behaviour bit for bit). *)
  fuel : int;
      (** Validation fuel per transaction attempt: every transactional
          operation — including elided/owned accesses and [tx_work],
          which the periodic barrier-path guard never sees — burns
          one unit, and exhaustion forces a revalidation (then refills).
          Bounds how long a zombie can run regardless of what it does.
          [0] (default) disables the budget; [+fuel:<n>] suffix. *)
  fault : Fault.kind option;
      (** Injected fault for the robustness layer / checker self-tests
          ([+fault:<name>] suffix).  Never enable outside tests. *)
  fences : bool;
      (** Debug mode: issue a full (SC) memory fence between the data load
          and the post-read orec check in the optimistic read barrier
          ([+fence] suffix).  The STM is argued correct {e without} this
          (DESIGN.md §10: the one racy window is caught by validation); the
          flag exists to empirically separate "memory-model bug" from
          "logic bug" when chasing a native-mode failure — if a symptom
          vanishes under [+fence], suspect the ordering argument. *)
  lazy_versioning : bool;
      (** Deferred-update (lazy-versioning, TL2-style) backend ([+lazy]
          suffix).  Write barriers buffer into a per-transaction redo
          log ({!Redo}) instead of acquiring orecs and undo-logging
          eagerly; reads probe the buffer first (read-own-write);
          commit acquires the write-set orecs, validates, publishes the
          buffered values and releases.  The paper's capture payoff
          compounds: a write the capture check proves captured skips
          the buffer {e and} the commit write-back entirely
          ([Stats.redo_skips]).  Composes with every other flag;
          [false] (default) is the eager-undo engine, bit for bit. *)
  durable : bool;
      (** Durable transactions ([+wal] suffix): writer commits append a
          redo-style record (derived from the redo buffer under [+lazy],
          captured from the undo log's addresses under eager) to a
          write-ahead log at the serialization point, batched by group
          commit ([wal_group]).  Stores the capture analysis proved
          transaction-local never reach the log ([Stats.wal_skips]).
          The engine must be given a {!Wal.t} ({!Engine.attach_wal}) for
          the toggle to take effect. *)
  wal_group : int;
      (** Group-commit batch size: pending WAL records accumulated
          before an fsync ([>= 1]; 1 = sync every commit). *)
  ebr : bool;
      (** Epoch-based reclamation ([+ebr] suffix; DESIGN.md §14):
          committed deferred frees park on a per-thread limbo list
          ({!Reclaim}) for two grace periods before {!Alloc.free} runs,
          so no in-flight reader — including a sandboxed zombie running
          on stale reads — can ever see a block it holds a pointer into
          recarved for a new allocation.  Also arms {!Txn.quiesce} /
          {!Txn.privatize} (without EBR they are no-op fences).
          [false] (default) frees at commit, bit for bit as before. *)
}

val full_scope : scope
val write_only_scope : scope
(** Stack+heap checks, write barriers only. *)

val heap_write_only_scope : scope
(** Heap checks in write barriers only (Figure 11b's runtime
    configuration). *)

val default : t
(** Baseline with defaults. *)

val baseline : t
val runtime : ?scope:scope -> Captured_core.Alloc_log.backend -> t
val compiler : t

(** Runtime capture analysis + compiler shared-site filtering: barriers at
    definitely-shared sites skip the runtime checks entirely. *)
val runtime_hybrid : ?scope:scope -> Captured_core.Alloc_log.backend -> t

(** [with_fastpath t] enables ([?on:false]: disables) the hierarchical
    capture-check fast path. *)
val with_fastpath : ?on:bool -> t -> t

(** [with_tvalidate t] enables ([?on:false]: disables) timestamp-based
    validation (global version clock; [+tv] name suffix). *)
val with_tvalidate : ?on:bool -> t -> t

(** [with_cm policy t] selects the contention-management policy
    ([+cm:<name>] suffix for non-default policies). *)
val with_cm : Cm.policy -> t -> t

(** [with_fuel n t] arms the per-attempt validation-fuel budget
    ([+fuel:<n>] suffix; [n = 0] disables).  Raises [Invalid_argument] on
    negative [n]. *)
val with_fuel : int -> t -> t

(** [with_fences t] enables ([?on:false]: disables) the debug read-barrier
    fence ([+fence] suffix). *)
val with_fences : ?on:bool -> t -> t

(** The validation clock a configuration runs under, derived from
    [tvalidate] (DESIGN.md §11):
    - [Scan]: no [+tv] — commits bump each released orec's version and
      validate by scanning the read set;
    - [Global]: [+tv] — TL2/LSA-style shared version clock, O(1)
      snapshot checks. *)
type clock = Scan | Global

val clock : t -> clock

(** [with_lazy t] selects the deferred-update backend ([+lazy] suffix;
    [?on:false] returns to eager undo). *)
val with_lazy : ?on:bool -> t -> t

(** [with_durable t] enables durable transactions ([+wal] suffix);
    [?group] sets the group-commit batch size (default kept).  Raises
    [Invalid_argument] on [group < 1]. *)
val with_durable : ?group:int -> ?on:bool -> t -> t

(** [with_ebr t] enables ([?on:false]: disables) epoch-based
    reclamation of transactionally freed blocks ([+ebr] suffix). *)
val with_ebr : ?on:bool -> t -> t

(** [with_fault f t] injects fault [f] ([+fault:<name>] suffix). *)
val with_fault : Fault.kind option -> t -> t

(** [has_fault t k] — is fault [k] the one injected in [t]? *)
val has_fault : t -> Fault.kind -> bool

val audit : t
(** Baseline + audit counting (Figure 8 runs). *)

val name : t -> string

(** [mode_name t] — the versioning mode plus the active optimisation
    suffixes, e.g. ["eager"], ["lazy+fp+tv"], ["lazy+tv+wal+ebr"].
    Stable across analysis/scope choices, so A/B result streams are
    self-describing (the [mode] field of [stamp_run --json] and bench
    JSON lines). *)
val mode_name : t -> string
