(** Per-transaction int -> int index: the read set's orec -> read-log
    position map and the write set's address -> log-index map.

    Sized by the transaction's footprint: an open-addressed table that
    doubles when half full.  Probes allocate nothing; only growth does.
    {!next_attempt} is O(1): slots are epoch-stamped rather than
    wiped. *)

type t

val create : unit -> t

val next_attempt : t -> unit
(** Forget every entry.  Called at transaction begin. *)

val find : t -> int -> int
(** [find t k] is the value stored for key [k], or [-1] if absent. *)

val add : t -> int -> int -> unit
(** [add t k v] maps key [k] (any int) to [v >= 0], or to [-1] to mark
    [k] dropped ([find] then answers absent), replacing a value already
    stored for [k].  Grows the table as needed. *)

val length : t -> int
(** Keys stored since the last {!next_attempt}, dropped ones
    included. *)
