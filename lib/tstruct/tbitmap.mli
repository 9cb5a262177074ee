(** Bitmap over transactional memory (STAMP [bitmap.c]). *)

type handle = int

val create : Access.t -> nbits:int -> handle
val set : Access.t -> handle -> int -> bool
(** False if already set (STAMP semantics). *)

val clear : Access.t -> handle -> int -> unit
val test : Access.t -> handle -> int -> bool
val count : Access.t -> handle -> int
val find_clear : Access.t -> handle -> start:int -> int option
