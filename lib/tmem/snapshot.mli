(** Checkpoint image of a memory plus its arena allocators.

    Used by the durable-transaction layer: a snapshot is taken at
    checkpoint time, serialized into a WAL checkpoint record, and the
    log behind it is truncated.  Recovery restores the snapshot and
    replays the remaining log records on top.

    The image is run-length: maximal runs of consecutive non-zero words,
    [[addr; len; v_1 .. v_len]], in ascending order, then each arena's
    allocator state (DESIGN.md §13 "Record format").  The encoding
    carries no checksum of its own — snapshots travel inside WAL records
    whose frame checksum covers every word. *)

type t

(** A live memory's image, found but not copied: the runs of non-zero
    words (found in resident chunks) and each arena's allocator state.
    The run values are read from the memory when the image is written,
    so it must be written before the memory changes. *)
type image

val image : Memory.t -> Alloc.t array -> image

(** Length of the image's encoding, as {!encode} would give it. *)
val image_words : image -> int

(** [write_image im sink] hands the image's encoding to [sink], in
    order, as slices [sink a pos len] of one reused buffer: a WAL
    checkpoint writes it straight into its record. *)
val write_image : image -> (int array -> int -> int -> unit) -> unit

(** [capture mem arenas] snapshots the current memory image together
    with each arena's allocator state: {!image}, written into an
    array. *)
val capture : Memory.t -> Alloc.t array -> t

(** [restore t] builds a fresh memory and arena set matching the
    snapshot.  The arenas alias the returned memory. *)
val restore : t -> Memory.t * Alloc.t array

(** Flat word serialization, for embedding in a WAL record: the
    snapshot's own words, shared, not copied.  Its length is
    [2 + Σ (2 + run length) + 1 + Σ (7 + size classes)] over runs and
    arenas. *)
val encode : t -> int array

(** Structural check of {!encode} output.  [Error _] on truncated input,
    a run that is empty, overlaps or precedes the one before it, or
    leaves the memory, and on an arena out of range.  The snapshot
    shares [words]. *)
val decode : int array -> (t, string) result

(** [restore_words ~len word] checks and restores the [len]-word
    encoding whose [i]th word is [word i], as {!decode} then {!restore}
    would, writing each run into the fresh memory as it is read: WAL
    recovery restores a checkpoint straight from the log's bytes. *)
val restore_words :
  len:int -> (int -> int) -> (Memory.t * Alloc.t array, string) result

(** Non-zero words in the image. *)
val live_cells : t -> int
