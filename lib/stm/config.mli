(** STM optimisation configuration — which capture-analysis technique the
    barriers apply, and where.

    The paper's evaluated systems map to:
    - [Baseline]: no capture analysis (a rewrite of an address already
      in the write set still takes no second log entry — the paper's
      baseline has those "cheap checks").
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
          then a fresh timestamp) instead of an abort.  The fuel-forced
          zombie guard becomes an O(1) clock compare, commit skips the
          read-set scan when the snapshot is current, and read-only
          transactions commit with no validation and no clock bump.  Works under every
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
          per record, 1 MiB; [+orecs:N] token). *)
  fault : Fault.kind option;
      (** Injected fault for the robustness layer / checker self-tests
          ([+fault:<name>] token).  Never enable outside tests. *)
  fences : bool;
      (** Debug mode: issue a full (SC) memory fence between the data load
          and the post-read orec check in the optimistic read barrier
          ([+fence] token).  The STM is argued correct {e without} this
          (DESIGN.md §10: the one racy window is caught by validation); the
          flag exists to empirically separate "memory-model bug" from
          "logic bug" when chasing a native-mode failure — if a symptom
          vanishes under [+fence], suspect the ordering argument. *)
  lazy_versioning : bool;
      (** Deferred-update (lazy-versioning, TL2-style) backend ([+lazy]
          token).  Write barriers buffer into the per-transaction write
          set ({!Write_set}) instead of acquiring orecs and undo-logging
          eagerly; reads probe the buffer first (read-own-write);
          commit acquires the write-set orecs, validates, publishes the
          buffered values and releases.  The paper's capture payoff
          compounds: a write the capture check proves captured skips
          the buffer {e and} the commit write-back entirely
          ([Stats.redo_skips]).  Composes with every other flag;
          [false] (default) is the eager-undo engine, bit for bit. *)
  durable : bool;
      (** Durable transactions ([+wal] token): writer commits append a
          redo-style record (the write set's addresses with their new
          values, buffered under [+lazy], in memory under eager) to a
          write-ahead log at the serialization point, batched by group
          commit ([wal_group]).  Stores the capture analysis proved
          transaction-local never reach the log ([Stats.wal_skips]).
          The engine must be given a {!Wal.t} ({!Engine.attach_wal}) for
          the toggle to take effect. *)
  wal_group : int;
      (** Group-commit batch size: pending WAL records accumulated
          before an fsync ([>= 1]; 1 = sync every commit). *)
  ebr : bool;
      (** Epoch-based reclamation ([+ebr] token; DESIGN.md §14):
          committed deferred frees park on a per-thread limbo list
          ({!Reclaim}) for two grace periods before {!Alloc.free} runs,
          so no in-flight reader — including a sandboxed zombie running
          on stale reads — can ever see a block it holds a pointer into
          recarved for a new allocation.  Also arms {!Txn.quiesce} /
          {!Txn.privatize} (without EBR they are no-op fences).
          [false] (default) frees at commit, bit for bit as before. *)
}

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

(** [with_fastpath t] enables ([?on:false]: disables) the hierarchical
    capture-check fast path. *)
val with_fastpath : ?on:bool -> t -> t

(** [with_tvalidate t] enables ([?on:false]: disables) timestamp-based
    validation (global version clock; [+tv] token). *)
val with_tvalidate : ?on:bool -> t -> t

(** The validation clock a configuration runs under, derived from
    [tvalidate] (DESIGN.md §11):
    - [Scan]: no [+tv] — commits bump each released orec's version and
      validate by scanning the read set;
    - [Global]: [+tv] — TL2/LSA-style shared version clock, O(1)
      snapshot checks. *)
type clock = Scan | Global

val clock : t -> clock

(** [with_lazy t] selects the deferred-update backend ([+lazy] token;
    [?on:false] returns to eager undo). *)
val with_lazy : ?on:bool -> t -> t

(** [with_durable t] enables durable transactions ([+wal] token);
    [?group] sets the group-commit batch size (default kept).  Raises
    [Invalid_argument] on [group < 1]. *)
val with_durable : ?group:int -> ?on:bool -> t -> t

(** [with_ebr t] enables ([?on:false]: disables) epoch-based
    reclamation of transactionally freed blocks ([+ebr] token). *)
val with_ebr : ?on:bool -> t -> t

(** [with_fault f t] injects fault [f] ([+fault:<name>] token). *)
val with_fault : Fault.kind option -> t -> t

(** [has_fault t k] — is fault [k] the one injected in [t]? *)
val has_fault : t -> Fault.kind -> bool

val audit : t
(** Baseline + audit counting (Figure 8 runs). *)

(** [to_string t] — the one spelling of a configuration, used by
    [stamp_run --config], [stamp_check --modes] and every JSON [config]
    key.  A head naming [analysis] — [baseline], [compiler], or a runtime
    backend as {!Captured_core.Alloc_log.backend_name} spells it
    ([tree], [array], [filtering]) — then one [+] token per field off its
    {!default} value, in this order:
    [+scope:L] ([L] the subsequence of [shrw] switched on: stack and heap
    checks, read and write barriers; Figure 11b is [+scope:hw]),
    [+sf] (static_filter), [+audit], [+fp], [+tv], [+lazy], [+wal],
    [+group:N] (wal_group), [+ebr], [+fence], [+fault:F] and
    [+orecs:N] (orec_bits).
    E.g. ["tree+fp+ebr"], ["tree+scope:hw+tv+lazy+wal+ebr"]. *)
val to_string : t -> string

(** The grammar {!of_string} accepts, spelled out from the token table:
    the heads, then every [+] token with the form of its value.  Its
    errors quote it, and [stamp_run --help] prints it.  Built on each
    call, so it costs no live heap. *)
val grammar : unit -> string

(** [of_string s] — the inverse of {!to_string}: [of_string (to_string t)
    = Ok t] for every [t].  Tokens may come in any order; an unknown head
    or token, a repeated token or an out-of-range value ([+group:0],
    [+orecs:x]) is an [Error] naming the known spellings. *)
val of_string : string -> (t, string) result
