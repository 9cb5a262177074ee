(** Opacity / serializability oracle.

    Replays a recorded {!History} against a sequential reference: a
    per-address timeline of committed values (transactional writes take
    effect at their [Ev_commit]; private-annotated and raw writes
    immediately).  The checks, in the order they can fire:

    - {b read-own-write}: a read after the attempt's own pending write
      must return that write's value;
    - {b repeat-read}: two reads of one address with no own write in
      between must agree.  Under [Committed_only] the verdict is held
      until the attempt commits — a mismatched zombie read in an attempt
      the STM later aborts is legal there;
    - {b use-after-free} (only with [reclaim]): a read of a word that a
      commit newer than the attempt's begin freed and a later allocation
      then recarved.  Fires immediately in every strictness mode — the
      reader is usually a doomed zombie, and the allocator's header/link
      stores bump no ownership record, so no validation discipline can
      catch the access.  Epoch-based reclamation ([Config.ebr]) makes
      the rule unreachable by holding reuse in limbo until every such
      attempt has finished;
    - {b no-snapshot}: a committed attempt's first reads must all match
      the committed state at {e some} instant between its begin and its
      commit (opacity's snapshot condition);
    - {b stale-locked-read}: an address a committed attempt both read and
      wrote (so its lock was held through validation) must still hold the
      read value at commit — the lost-update detector;
    - {b no-snapshot-aborted}: the snapshot condition applied to aborted
      attempts, only under [All_attempts] (see below);
    - {b init-only-rewrite}: a write (transactional, in place or
      buffered, or raw) to a word read at an init-only site
      ({!Captured_core.Site.declare}) since its block's last allocation,
      unless the writing attempt allocated the block.  The barrier loads
      such words with no validation, so the site's declaration is what
      makes those reads opaque; the rule fires at the write, in every
      strictness mode;
    - {b final-state}: memory after the run must match the timeline
      (allocator-recycled addresses excluded);
    - {b app-verify}: the workload's own invariant checker.

    Reads the barrier elided as captured, or loaded directly at an
    init-only site, are exempt only when the address
    lies in a block the same attempt allocated — an elision that leaks
    to genuinely shared memory is checked as a shared access and fails.
    Reads of addresses whose ownership record the attempt itself
    write-locked earlier are also exempt — including line-mates and
    hash-collided addresses, which is what [index_of] (the world's
    address → orec coordinate mapping) decides: partial aborts roll
    writes back but keep the locks, and the owned fast path reads memory
    with no validation, so such reads carry no consistency promise in
    any mode.  The default maps every address to its own record (no
    collisions).

    [All_attempts] is sound for configurations that validate every read
    ([Config.tvalidate]); the baseline's fuel-forced validation
    ([Costs.fuel_budget]) permits bounded zombie windows in aborted
    attempts, so it gets [Committed_only]. *)

type strictness = Committed_only | All_attempts

type violation = { kind : string; tid : int; seq : int; detail : string }

val violation_to_string : violation -> string

(** [check ~strictness ~initial ~final ~history ~verify ()] replays
    [history].  [initial addr] is memory before the run, [final addr]
    after; [verify] is the workload invariant.  Returns the first
    violation found, or [None].

    [lazy_mode] models deferred-update visibility: instrumented writes
    take no locks until commit, so the self-locked-orec read exemption
    never applies mid-attempt — the oracle is strictly {e stricter}
    there.  Read-own-write is still enforced (the engine answers those
    reads from its redo buffer).

    [reclaim] arms the use-after-free rule (default off: workloads whose
    frees are coordinated by the application — STAMP's vacation, bayes —
    would otherwise be held to a guarantee the no-EBR engine never
    claimed).  The harness arms it when the config runs [+ebr] or the
    workload opts in ([Workloads.reclaim_oracle]). *)
val check :
  ?strictness:strictness ->
  ?index_of:(int -> int) ->
  ?lazy_mode:bool ->
  ?reclaim:bool ->
  initial:(int -> int) ->
  final:(int -> int) ->
  history:History.t ->
  verify:(unit -> (unit, string) result) ->
  unit ->
  violation option

(** {2 Recovery oracle (durable transactions)}

    After a crash-and-replay, asserts the recovered image is
    {e prefix-consistent} with the recorded history: the WAL's durable
    items (nonempty commit records in commit order, raw/private stores
    at their barrier instants) admit a cut M such that recovery applied
    exactly the items before M, every acknowledged (fsynced) item lies
    before M, and no effect of an in-flight (uncommitted) attempt is
    visible.  Violation kinds:

    - {b recovery-gap}: replayed commit seqs are not the contiguous
      range continuing the snapshot floor;
    - {b recovery-lost-commit} / {b recovery-lost-raw}: an acknowledged
      item did not survive;
    - {b recovery-not-prefix}: a later durable item was applied while an
      earlier one was not;
    - {b recovery-phantom}: recovery claims more durable items than the
      history produced;
    - {b recovery-state}: a recovered cell disagrees with the durable
      prefix (or was touched when nothing durable wrote it — including
      partial-transaction leakage from the crashed attempt);
    - {b recovery-freed-live-block}: a block the durable prefix leaves
      live (allocated, not durably freed) whose recovered header reads
      free — the crash-time face of the reclamation invariant: a limbo
      block whose free record lies past the cut is still reader-visible
      and must never be materialized as reusable;
    - {b recovery-leaked-block}: the converse — a durably freed block
      whose recovered header still reads allocated.

    Cells inside allocated/freed extents are wildcards until a durable
    write pins them (recycled-block garbage and allocator links are
    replayed via payload images, outside the value model), and
    stack-elided writes are transient by definition — both by design,
    mirroring the engine's captured-write WAL elision. *)

type recovery_facts = {
  rf_floor_seq : int;  (** commits already inside the restored snapshot *)
  rf_applied_seqs : int list;  (** commit seqs replayed, in log order *)
  rf_floor_raws : int;
  rf_raws_applied : int;
  rf_synced_seq : int;  (** highest commit seq acknowledged pre-crash *)
  rf_synced_raws : int;
  rf_freed : (int * int * int) list;
      (** (tid, addr, carved size) of each free recovery replayed *)
}

(** [check_recovery ~initial ~recovered ~history ~facts ()] — [initial]
    must describe the image the {e snapshot floor} restores (the pre-run
    memory when the only checkpoint is the baseline one). *)
val check_recovery :
  initial:(int -> int) ->
  recovered:(int -> int) ->
  history:History.t ->
  facts:recovery_facts ->
  unit ->
  violation option
