(** Per-thread simulated call stack.

    Grows downward (paper, Figure 3): the stack pointer starts at the high
    end of the thread's region and [alloca] moves it toward the base.  The
    transaction-local part of the stack is the range between the stack
    pointer saved at transaction begin ([start_sp]) and the current stack
    pointer, so the runtime stack-capture check is one range compare. *)

type t

type frame = Memory.addr
(** A saved stack-pointer value, restored with [restore]. *)

exception Overflow

(** [create mem ~base ~words] sets up an empty stack over
    [\[base, base+words)]. *)
val create : Memory.t -> base:Memory.addr -> words:int -> t

(** [alloca t n] pushes an [n]-word block, returning its lowest address.
    Raises [Overflow] when the region is exhausted. *)
val alloca : t -> int -> Memory.addr

val sp : t -> Memory.addr
(** Current stack pointer: lowest in-use address ([base+words] when
    empty). *)

val save : t -> frame
val restore : t -> frame -> unit
(** [restore t f] pops everything pushed since [save] returned [f]. *)

val in_live_range : t -> from_sp:Memory.addr -> Memory.addr -> int -> bool
(** [in_live_range t ~from_sp addr size] — is [\[addr, addr+size)] wholly
    inside the stack region pushed *after* the stack pointer was [from_sp]?
    This is the paper's [is_captured_on_stack] with [from_sp] playing
    [start_sp]. *)

