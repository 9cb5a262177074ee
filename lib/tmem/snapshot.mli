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

(** A live memory's image, found but not copied: the runs of non-zero
    words (found in resident chunks) and each arena's allocator state.
    The run values are read from the memory when the image is written,
    so it must be written before the memory changes. *)
type image

val image : Memory.t -> Alloc.t array -> image

(** Length of the image's encoding, in words:
    [2 + Σ (2 + run length) + 1 + Σ (7 + size classes)] over runs and
    arenas. *)
val image_words : image -> int

(** [write_image im sink] hands the image's encoding to [sink], in
    order, as slices [sink a pos len] of one reused buffer: a WAL
    checkpoint writes it straight into its record. *)
val write_image : image -> (int array -> int -> int -> unit) -> unit

(** [restore_words ~len word] checks and restores the [len]-word
    encoding whose [i]th word is [word i] into a fresh memory and arena
    set (the arenas alias the memory), writing each run as it is read:
    WAL recovery restores a checkpoint straight from the log's bytes.
    [Error _] on truncated input, a run that is empty, overlaps or
    precedes the one before it, or leaves the memory, on an arena out of
    range, and on trailing words. *)
val restore_words :
  len:int -> (int -> int) -> (Memory.t * Alloc.t array, string) result
