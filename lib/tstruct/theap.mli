(** Binary max-heap over transactional memory (STAMP [heap.c]).

    Entries are opaque words ordered by a caller-supplied comparator,
    which receives the accessor so it can dereference entries (yada's
    worklist orders element pointers by element fields). *)

type handle = int

type cmp = Access.t -> int -> int -> int
(** [cmp acc a b] — positive if [a] ranks above [b]. *)

val create : Access.t -> ?capacity:int -> unit -> handle
val size : Access.t -> handle -> int
val insert : Access.t -> cmp -> handle -> int -> unit
val pop : Access.t -> cmp -> handle -> int option
