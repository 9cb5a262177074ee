(** Segregated-free-list arena allocator over a region of memory.

    Each logical thread owns one arena (no synchronisation on the hot
    path), mirroring McRT-Malloc's per-thread structure.  Blocks carry a
    one-word header holding the payload size and an allocated bit, so
    [block_size] and double-free detection work.  Transactional semantics
    (speculative allocation, deferred free, allocation logging) live in the
    STM layer, which calls down into this module.

    No coalescing is performed; the STAMP-style workloads recycle a small
    set of block sizes, which segregated lists serve without fragmentation
    growth.

    {2 Records and arrays}

    The allocator also decides each word's conflict granule
    ({!Memory.granules}).  A block whose carved payload is at most
    {!record_words} words is a {e record} and gets one ownership record
    per word; a larger block is an {e array} and shares one per aligned
    4-word line.  Two cursors carve each arena from its two ends:

    - the record cursor packs records upward from the first page boundary
      at or above [base], and turns each page to word granules when it
      first claims it, before any block on it is handed out;
    - the array cursor carves arrays downward from [limit] (rounded down
      to a line), each payload on a line boundary, so no line of an array
      holds another block's payload.

    The cursors never share a page; an allocation that would make them
    raises [Out_of_memory].  The record cursor starts on a page boundary
    and never claims the page holding [limit], so it never marks a page
    shared with a stack or a neighbouring arena.  Free lists are per size
    class, so a recycled block keeps its kind and its granule, also when
    it was freed into another arena; {!restore_state} and
    {!replay_alloc_at} re-mark the record pages, so recovery rebuilds the
    same mapping. *)

type t

exception Out_of_memory

(** [create mem ~base ~words] makes an arena over [\[base, base+words)].
    Blocks are carved only above the first page boundary at or above
    [base] (see above). *)
val create : Memory.t -> base:Memory.addr -> words:int -> t

(** [alloc t n] returns the address of a fresh [n]-word block
    ([n] >= 1).  Raises [Out_of_memory] when the arena is exhausted. *)
val alloc : t -> int -> Memory.addr

(** [free t addr] returns [addr]'s block to this arena's size-class list.
    The block may have been carved by a *different* arena (cross-thread
    free, "freeing thread keeps it"); it is recycled here.  Raises
    [Invalid_argument] on addresses that are not live allocated blocks. *)
val free : t -> Memory.addr -> unit

(** [block_size t addr] is the payload size of the live block at
    [addr]. *)
val block_size : t -> Memory.addr -> int

(** [carve_size n] — the payload size actually carved for an [n]-word
    request (exact up to 64 words, next power of two above).  Exposed so
    the recovery oracle can reason about the extent a logged allocation
    really occupies. *)
val carve_size : int -> int

val record_words : int
(** 8: the largest carved payload that is a record (one 64-byte line). *)

val live_blocks : t -> int
val live_words : t -> int

(** [owns t addr] — does [addr] fall inside this arena's region? *)
val owns : t -> Memory.addr -> bool

val mem : t -> Memory.t
val base : t -> Memory.addr

(** {2 Checkpoint / recovery support}

    The free lists live inside memory cells (each free block's first
    payload word links to the next), so a memory image plus the small
    [state] record below reconstructs an arena exactly — which is what
    durable-transaction snapshots persist. *)

type state = {
  s_base : Memory.addr;
  s_words : int;
  s_records_top : Memory.addr;  (** record cursor: next unused word *)
  s_arrays_low : Memory.addr;  (** array cursor: lowest used word *)
  s_free_lists : int array;  (** head payload address per size class *)
  s_live_blocks : int;
  s_live_words : int;
}

val capture_state : t -> state

(** [restore_state mem s] rebuilds an arena over [mem] from a captured
    state and marks its record pages in [mem]'s page table.  [mem] must
    already hold the matching memory image. *)
val restore_state : Memory.t -> state -> t

(** [unlink_free t ~addr ~size] removes the free block at [addr] from
    this arena's size-class list if present.  Misses are answered in
    O(1) from the block's own header (allocated bit or size-class
    mismatch proves it is not on the list); a hit still walks the list
    (recovery-path only, never hot).  [size] is the carved payload size
    from the block header. *)
val unlink_free : t -> addr:Memory.addr -> size:int -> bool

(** [replay_alloc_at t ~addr ~size] re-performs a logged allocation at
    its original address during recovery: advances the cursor of the
    block's kind past it if needed (re-marking record pages), writes the
    header and bumps live counts.  The
    caller unlinks the block from free lists first and writes the
    payload image. *)
val replay_alloc_at : t -> addr:Memory.addr -> size:int -> unit
