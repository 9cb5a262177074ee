(** Ordered map over transactional memory.

    STAMP's MAP is a red-black tree; this implementation is a *treap*
    (BST with deterministic per-key priorities).  The substitution keeps
    what the capture analysis sees — traversal reads along a logarithmic
    path, rebalancing writes to existing shared nodes, fresh-node
    initialisation writes — while being much less error-prone in a
    word-addressed memory.  A node's priority is a function of its key
    (its count of trailing zero bits, then a hash), so a dense or strided
    key range builds the perfectly balanced tree, no node stores its
    priority, and rotations compare the priorities of keys the walk
    already read.  Documented in DESIGN.md. *)

type handle = int

val node_words : int
val create : Access.t -> handle
val destroy : Access.t -> handle -> unit
val size : Access.t -> handle -> int

(** [insert acc map ~key ~value] — false (no change) if [key] present. *)
val insert : Access.t -> handle -> key:int -> value:int -> bool

(** [update acc map ~key ~value] — inserts or overwrites; true if fresh. *)
val update : Access.t -> handle -> key:int -> value:int -> bool

(** [find_or_add acc map ~key ~make] — the value bound to [key]; if
    [key] is absent, binds it to [make ()] and returns that, in the one
    descent that found it absent.  [make] runs at most once, and only on
    a miss. *)
val find_or_add : Access.t -> handle -> key:int -> make:(unit -> int) -> int

val find : Access.t -> handle -> int -> int option
val contains : Access.t -> handle -> int -> bool

(** [remove acc map key] — false if absent; frees the node. *)
val remove : Access.t -> handle -> int -> bool

(** In-order fold (read-only traversal). *)
val fold : Access.t -> handle -> init:'a -> f:('a -> int -> int -> 'a) -> 'a

(** [shape acc map] — the tree's height and the sum of its nodes'
    depths (the root at depth 1), read by a full walk. *)
val shape : Access.t -> handle -> int * int

(** [check acc map] — [Ok ()] if the keys are in search-tree order and
    no node's key-derived priority outranks its parent's; otherwise what
    broke, at the first node found. *)
val check : Access.t -> handle -> (unit, string) result
