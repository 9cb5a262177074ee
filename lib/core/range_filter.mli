(** Hash-table filter of captured addresses (paper, §3.1.2 "Filtering").

    When a block is logged, every word address it covers is hashed and the
    corresponding table entry is overwritten with that exact address; a
    capture check hashes the probed address and compares the entry.  The
    scheme extends the single-item runtime filtering of Harris et al. to
    ranges.  Collisions between live blocks lose the older entry, and
    unlogging a block clears its slots even if a collision had repurposed
    them — both produce only false negatives, never false positives, so the
    filter stays conservative.  Checks are a hash and a compare; logging
    and unlogging cost grows with the block size. *)

type t

val create : ?buckets:int -> unit -> t
(** [buckets] defaults to 4096 and is rounded up to a power of two. *)

val insert : t -> lo:int -> hi:int -> unit
val remove : t -> lo:int -> hi:int -> unit

(** [contains t ~lo ~hi] checks every word of [\[lo, hi)]. *)
val contains : t -> lo:int -> hi:int -> bool

val clear : t -> unit
