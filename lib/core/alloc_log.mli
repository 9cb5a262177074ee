(** Per-transaction allocation log (paper, §3.1.2).

    Records every block the running transaction has allocated, so barriers
    can answer "is this address captured?".  The backend is selectable —
    the paper's three data structures — and all three are conservative:
    [Tree] is precise; [Array] and [Filter] may miss (false negatives
    only), which costs elision opportunities but never correctness for an
    in-place-update STM.

    With [~fastpath:true] the log additionally runs a hierarchical front
    line ({!Capture_cache}) before any backend probe — an envelope bounds
    summary (which also short-circuits the empty log) and a single-entry
    MRU block cache — and the [Array] backend promotes in place to the
    precise [Tree] when it saturates instead of silently dropping
    precision. *)

type backend = Tree | Array | Filter

val backend_name : backend -> string
val all_backends : backend list

type t

val create : ?filter_buckets:int -> ?fastpath:bool -> backend -> t
(** [fastpath] (default [false]) enables the capture-cache front line and
    Array-to-Tree saturation promotion. *)

val backend : t -> backend
(** The declared backend.  A promoted [Array] log still reports [Array];
    use {!promoted} to detect promotion. *)

val fastpath : t -> bool
val promotions : t -> int
(** Array-to-Tree promotions since creation (0 unless fastpath + Array). *)

val promoted : t -> bool

type added =
  | Kept  (** the backend tracks the block *)
  | Promoted  (** tracked, after promoting the saturated array to a tree *)
  | Dropped  (** the array was full (no fastpath): conservatively untracked *)

(** [add t ~lo ~hi] logs an allocation of [\[lo, hi)] and reports whether
    the backend actually tracks it. *)
val add : t -> lo:int -> hi:int -> added

(** [remove t ~lo ~hi] unlogs a block (the transaction freed memory it had
    itself allocated); returns whether the backend was tracking it.  The
    block count only decrements on a successful backend remove, so it
    cannot desync below reality on tree/array misses. *)
val remove : t -> lo:int -> hi:int -> bool

type probe =
  | Summary_reject  (** outside the captured envelope (or empty log): ~2 ops *)
  | Mru_hit  (** inside the most-recently-matched block: ~2 more ops *)
  | Backend_hit  (** full backend probe, captured *)
  | Backend_miss  (** full backend probe, not captured *)

val mru_tier_active : t -> bool
(** Whether the MRU block-cache tier is currently consulted.  The tier is
    skipped — and must not be charged for — when the backend probe is
    already O(1) ([Filter]) or the log holds at most one block (the
    envelope summary alone answers); it re-arms automatically once the
    log grows past one block. *)

(** [probe t ~lo ~hi] — conservative captured-on-heap test, classified by
    which tier of the hierarchy answered (without fastpath, always
    [Backend_hit]/[Backend_miss]).  A backend hit refreshes the MRU
    entry; when {!mru_tier_active} is false the MRU tier is bypassed and
    the probe routes straight from the summary to the backend. *)
val probe : t -> lo:int -> hi:int -> probe

(** [contains t ~lo ~hi] — [probe] collapsed to a boolean. *)
val contains : t -> lo:int -> hi:int -> bool

val size : t -> int
(** Blocks the backend currently tracks (excludes array-overflow drops). *)

val search_cost : t -> int
(** Simulator cycles one full backend [contains] probe costs right now
    (depends on the backend and its occupancy); the fast-path tiers in
    front of it are priced by the caller's cost model. *)

val add_cost : t -> lo:int -> hi:int -> int
(** Simulator cycles logging [\[lo, hi)] costs. *)

val clear : t -> unit
(** Empty the log (transaction end — commit or abort).  A promoted log
    reverts to its declared array backend. *)
