(** Circular-buffer FIFO queue over transactional memory (STAMP
    [queue.c]).  Header: pop index, push index, capacity, data pointer.
    Grows by doubling (allocate, copy, free) when full. *)

type handle = int

val create : Access.t -> ?capacity:int -> unit -> handle
val is_empty : Access.t -> handle -> bool
val length : Access.t -> handle -> int
val push : Access.t -> handle -> int -> unit
val pop : Access.t -> handle -> int option
