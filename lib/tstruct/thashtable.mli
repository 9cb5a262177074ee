(** Chained hash table over transactional memory (STAMP [hashtable.c]).

    Fixed bucket count (STAMP's resizing is disabled in its TM version
    too); chains are {!Tlist}s keyed by the full key, so all list sites
    apply. *)

type handle = int

val create : Access.t -> ?buckets:int -> unit -> handle
val size : Access.t -> handle -> int

val insert : Access.t -> handle -> key:int -> value:int -> bool
(** False if the key is already present. *)

val find : Access.t -> handle -> int -> int option
val remove : Access.t -> handle -> int -> bool
