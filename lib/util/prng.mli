(** Deterministic pseudo-random number generator.

    A splitmix64-based generator giving every logical thread its own
    independent, reproducible stream.  All workloads draw randomness from
    here (never from [Stdlib.Random]) so that simulator runs are
    bit-reproducible across machines and across the optimisation
    configurations being compared.  The state is held unboxed, so a
    draw allocates nothing. *)

type t

(** [create seed] makes a fresh generator from a 64-bit seed. *)
val create : int -> t

(** [split t] derives an independent generator; used to give each logical
    thread its own stream from one root seed. *)
val split : t -> t

(** [jump t n] advances [t] by exactly [n] draws in O(1): the stream
    continues as if [n] outputs had been drawn and discarded.  Raises
    [Invalid_argument] on negative [n]. *)
val jump : t -> int -> unit

(** [bits t] returns 62 uniformly random bits as a non-negative [int]. *)
val bits : t -> int

(** [int t n] draws uniformly from [0 .. n-1].  [n] must be positive. *)
val int : t -> int -> int

(** [in_range t lo hi] draws uniformly from [lo .. hi] inclusive. *)
val in_range : t -> int -> int -> int

(** [bool t] draws a fair boolean. *)
val bool : t -> bool

(** [chance t ~percent] is true with probability [percent]/100. *)
val chance : t -> percent:int -> bool

(** [float t] draws uniformly from [0, 1). *)
val float : t -> float

(** [shuffle t arr] permutes [arr] in place (Fisher-Yates). *)
val shuffle : t -> 'a array -> unit
