(** Sorted singly-linked list over transactional memory (STAMP [list.c]).

    Nodes are 3 words: key, value, next.  Keys are unique and kept in
    ascending order.  The header is 2 words: first-node pointer and size.

    Iterators live in caller-provided memory — typically one word of
    transaction stack ([Txn.alloca]), reproducing the paper's Figure 1(a)
    pattern where iterator accesses are compiler-instrumented barriers on
    captured stack slots. *)

type handle = int
(** Address of the list header. *)

val create : Access.t -> handle
val destroy : Access.t -> handle -> unit
(** Frees all nodes and the header. *)

val size : Access.t -> handle -> int

(** [insert acc lst ~key ~value] — false if [key] already present. *)
val insert : Access.t -> handle -> key:int -> value:int -> bool

(** [find acc lst key] — value bound to [key], if any. *)
val find : Access.t -> handle -> int -> int option

val contains : Access.t -> handle -> int -> bool

(** [fold acc lst ~init ~f] — in key order, [f acc key value]. *)
val fold : Access.t -> handle -> init:'a -> f:('a -> int -> int -> 'a) -> 'a

(** [remove acc lst key] — false if absent; frees the node. *)
val remove : Access.t -> handle -> int -> bool

(** {2 Iteration} (cursor = 1 word owned by the caller) *)

val iter_words : int

val iter_reset : Access.t -> iter:int -> handle -> unit
val iter_has_next : Access.t -> iter:int -> bool

(** [iter_next acc ~iter] — (key, value) under the cursor; advances.
    Raises [Invalid_argument] past the end. *)
val iter_next : Access.t -> iter:int -> int * int
