(** Epoch-based reclamation for the transactional allocator: every
    committed transactional free passes through it.

    Gates block {e reuse} — not the free call — on grace periods.  A
    committed deferred free lands on the freeing thread's limbo list
    stamped with the global epoch; {!Alloc.free} only runs once the
    global epoch has advanced twice past that stamp, which guarantees
    every transaction attempt (including doomed zombies still running
    on stale reads) that could hold a pre-free pointer has finished.

    Announcement slots and the global epoch are cache-line-padded
    atomics ({!Captured_util.Padding}), one line each, so the native
    backend never false-shares them.  The module performs no simulated
    cost consumption — the {!Txn} hooks that call in here own the
    scheduling points — so it is engine-agnostic. *)

type shared
(** Process-wide state: one announcement slot per thread encoding
    [(epoch lsl 1) lor active], plus the padded global epoch. *)

type t
(** One thread's handle: its announcement slot plus its limbo list
    (FIFO of retired blocks awaiting two grace periods). *)

val create_shared : int -> shared
(** [create_shared nslots] builds the slot table for [nslots] threads,
    all initially quiescent at the initial epoch. *)

val handle : shared -> slot:int -> t
(** [handle shared ~slot] claims announcement slot [slot] (one writer
    per slot) and registers the handle for {!handles}. *)

val handles : shared -> t option array
(** Slot-indexed registered handles — the engine's end-of-run
    {!flush} walks this after all threads have provably finished. *)

val shared_of : t -> shared
(** The shared state a handle belongs to. *)

val global_epoch : shared -> int
(** Current global epoch (starts at 1). *)

val announce : t -> unit
(** Mark this thread active and record the global epoch it observed.
    Called on transaction begin. *)

val announce_quiescent : t -> unit
(** Clear the active bit (the epoch field is refreshed too, but
    inactive slots never block {!try_advance}).  Called on commit and
    abort. *)

val try_advance : shared -> bool
(** Advance the global epoch by one iff every {e active} slot has
    observed the current value; quiescent threads never block.  Returns
    [true] on a successful CAS.  Safe to call from any thread at any
    time. *)

val retire : t -> addr:int -> size:int -> unit
(** Push a committed free onto the limbo list, stamped with the current
    global epoch.  The block's header still reads allocated; no reader
    can observe it recarved until {!drain} releases it. *)

val drain : t -> free:(addr:int -> size:int -> unit) -> int
(** Release every limbo entry whose stamp is two or more epochs behind
    the current global, oldest first, calling [free] on each.  Returns
    the number released. *)

val flush : t -> free:(addr:int -> size:int -> unit) -> int
(** Release {e everything} regardless of epoch.  Only sound at a
    provably quiescent point (end of run, after fibers complete /
    domains join), so no limbo block outlives a run. *)

val pending : t -> int
(** Blocks currently in limbo on this handle. *)

val pending_words : t -> int
(** Payload words currently in limbo on this handle. *)
