(** Per-transaction read-set index: which orecs the current attempt has
    logged, and where in its read log.

    Sized by the transaction's footprint, not by the orec table: an
    open-addressed table keyed by orec index that doubles when half
    full.  Probes allocate nothing; only growth does.  {!next_attempt}
    is O(1): slots are epoch-stamped rather than wiped, as in {!Redo}. *)

type t

val create : unit -> t

val next_attempt : t -> unit
(** Forget every entry.  Called at transaction begin. *)

val find : t -> int -> int
(** [find t k] is the value stored for key [k], or [-1] if absent. *)

val add : t -> int -> int -> unit
(** [add t k v] maps key [k] (any int) to [v >= 0], replacing a value
    already stored for [k].  Grows the table as needed. *)

val length : t -> int
(** Keys stored since the last {!next_attempt}. *)
