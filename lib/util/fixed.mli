(** Q43.20 fixed-point arithmetic.

    Transactional memory cells hold 63-bit OCaml ints, so real-valued
    workloads (kmeans distances, bayes log-likelihoods) store fixed-point
    values: 20 fractional bits, ~43 integer bits.  Precision 2^-20 is far
    below what those algorithms are sensitive to. *)

type t = int

val one : t
val zero : t

val of_int : int -> t
val to_int : t -> int
(** [to_int] truncates toward negative infinity. *)

val of_float : float -> t
val to_float : t -> float

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** [div _ 0] raises [Division_by_zero]. *)

val abs : t -> t

val sqrt : t -> t
(** Integer Newton iteration; [sqrt x] for [x < 0] raises
    [Invalid_argument]. *)

val log : t -> t
(** Natural logarithm via float round-trip (used only for scoring, where the
    float rounding is harmless because every configuration sees the same
    values).  Raises [Invalid_argument] on non-positive input. *)

val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
