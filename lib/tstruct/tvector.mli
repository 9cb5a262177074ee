(** Growable array over transactional memory (STAMP [vector.c]). *)

type handle = int

val create : Access.t -> ?capacity:int -> unit -> handle
val destroy : Access.t -> handle -> unit
val size : Access.t -> handle -> int
val push_back : Access.t -> handle -> int -> unit
val at : Access.t -> handle -> int -> int
(** Raises [Invalid_argument] out of bounds. *)

val set : Access.t -> handle -> int -> int -> unit
val clear : Access.t -> handle -> unit
