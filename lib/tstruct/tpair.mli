(** Two-word pair over transactional memory (STAMP [pair.c]). *)

type handle = int

val create : Access.t -> first:int -> second:int -> handle
val destroy : Access.t -> handle -> unit
val first : Access.t -> handle -> int
val second : Access.t -> handle -> int
val set_first : Access.t -> handle -> int -> unit
