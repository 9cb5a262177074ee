(** Cache-line padding for contended atomics (OCaml 5.1 substitute for
    [Atomic.make_contended]).

    A padded atomic occupies a full cache line by itself, so CAS/store
    traffic on one word never invalidates a neighbour's line — for the
    few words every domain hammers: the global version clock and the EBR
    epoch and announcement slots. *)

val cache_line_bytes : int
(** Assumed cache-line size (64). *)

val padded_atomic : int -> int Atomic.t
(** [padded_atomic v] is [Atomic.make v] backed by a block padded to
    {!cache_line_bytes}.  Behaves identically to an ordinary atomic under
    every [Atomic] operation. *)

val padded_table : int -> int -> int Atomic.t array
(** [padded_table n v] is an array of [n] fresh padded atomics, all [v],
    allocated consecutively so the table occupies one contiguous
    region. *)
