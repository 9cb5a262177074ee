(** Cache-line-sized unsorted array of memory ranges (paper, Figure 6).

    Holds at most [capacity] ranges ({!default_capacity}, a 64-byte line
    of 32-bit start/end pairs; the allocation log's array backend always
    uses it).  Insertions beyond capacity are silently dropped:
    capture analysis may be arbitrarily inaccurate for an in-place-update
    STM as long as it is conservative, and the paper found a few tracked
    allocations capture almost all the benefit. *)

type t

val default_capacity : int
(** 4. *)

val create : ?capacity:int -> unit -> t
val capacity : t -> int

(** [insert t ~lo ~hi] logs the range if a slot is free; returns whether it
    was kept. *)
val insert : t -> lo:int -> hi:int -> bool

(** [remove t ~lo] drops the entry starting at [lo] if tracked. *)
val remove : t -> lo:int -> bool

(** [contains t ~lo ~hi] — conservative: may answer [false] for a logged
    block dropped at insertion, never [true] wrongly. *)
val contains : t -> lo:int -> hi:int -> bool

(** [find t ~lo ~hi] — the tracked range containing [\[lo, hi)], if any. *)
val find : t -> lo:int -> hi:int -> (int * int) option

val iter : t -> (lo:int -> hi:int -> unit) -> unit
(** Over the tracked ranges, in slot order. *)

val size : t -> int
val clear : t -> unit
val dropped : t -> int
(** Ranges rejected since the last [clear] (measurement hook). *)
