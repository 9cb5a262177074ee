(** Checkpoint image of a memory plus its arena allocators.

    Used by the durable-transaction layer: a snapshot is taken at
    checkpoint time, serialized into a WAL checkpoint record, and the
    log behind it is truncated.  Recovery restores the snapshot and
    replays the remaining log records on top.

    The encoding carries no checksum of its own — snapshots travel
    inside WAL records whose frame checksum covers every word. *)

type t

(** [capture mem arenas] snapshots the current memory image (sparse:
    non-zero cells only, found in resident chunks) together with each
    arena's allocator state. *)
val capture : Memory.t -> Alloc.t array -> t

(** [restore t] builds a fresh memory and arena set matching the
    snapshot.  The arenas alias the returned memory. *)
val restore : t -> Memory.t * Alloc.t array

(** Flat word serialization, for embedding in a WAL record. *)
val encode : t -> int array

(** Structural parse of {!encode} output.  [Error _] on truncated or
    out-of-range input. *)
val decode : int array -> (t, string) result

val live_cells : t -> int
