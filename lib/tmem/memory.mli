(** Word-addressed transactional memory.

    One word-addressed space plays the role of the process address space:
    workload "pointers" are indices into it.  Capture analysis is about
    address ranges, so a simulated address space exposes exactly the
    structure the paper's runtime checks need (contiguous stacks, arbitrary
    heap blocks) while staying observable and deterministic.

    The space is demand-paged, like the memory of a real process: it is a
    table of {!chunk_words}-word chunks, and every chunk starts as one
    shared, never-written zero chunk.  A read of an untouched chunk
    returns 0; the first non-zero store to a chunk gives it cells of its
    own.  So a memory costs heap for the chunks written, not for its
    {!size}, and walks over the whole memory ({!iter_runs}, {!copy})
    visit resident chunks only.  Paging is invisible otherwise: every
    accessor reads and writes exactly as a flat zero-filled array would,
    and raises the same exceptions.

    Cells are read and written with plain (non-atomic) array accesses:
    under the OCaml memory model racy int accesses are defined (no
    tearing), and the STM's ownership records — which are [Atomic.t] —
    provide all required synchronisation, exactly as lock words do for a
    C runtime.  A chunk-table slot changes once, from the zero chunk to a
    fresh chunk, under a lock that domains racing to the same first store
    re-check (DESIGN.md §10). *)

type t

type addr = int
(** Word address; [null] = 0 is never a valid data address. *)

val null : addr

(** [create ~words] reserves a memory of [words] cells, all reading 0.
    Only its chunk table and granule table are allocated. *)
val create : words:int -> t

val size : t -> int

val get : t -> addr -> int
(** Raises [Invalid_argument] outside [1, size). *)

val set : t -> addr -> int -> unit

val unsafe_get : t -> addr -> int
(** Unchecked read.  The caller must guarantee [1 <= addr < size] — the
    STM barriers do (their sandbox bounds check runs first); audit and
    non-transactional paths must use {!get}. *)

val unsafe_set : t -> addr -> int -> unit
(** Unchecked write; same contract as {!unsafe_get}. *)

val blit_to_array : t -> addr -> int array -> int -> int -> unit
(** [blit_to_array t src dst dst_pos len] copies words out of memory (used
    by workloads privatising data). *)

(** {2 Resident chunks} *)

val chunk_words : int
(** 1024: the paging unit.  A chunk is resident from its first non-zero
    store on. *)

val resident_words : t -> int
(** Words held in resident chunks: {!chunk_words} per chunk written so
    far.  0 on a fresh memory; reads never change it. *)

val iter_runs : t -> (addr -> int -> unit) -> unit
(** [iter_runs t f] calls [f addr len] for every maximal run of [len]
    consecutive non-zero cells from [addr], in ascending address order,
    visiting resident chunks only.  A run may cross chunk boundaries. *)

val copy : t -> t
(** An independent memory with the same cells and granules; untouched
    chunks stay shared with the zero chunk. *)

(** {2 Conflict granules}

    Every [page_words]-word page carries one byte: the log2 of the
    conflict-detection granule of its words, that is how many aligned
    words share one ownership record ({!Captured_stm.Orec.index_of}).
    A fresh memory is all [line_log2] (4-word lines).  {!Alloc} turns a
    page to 0 (one record per word) when an arena's record
    cursor first claims it, before any block on it is handed out; no
    page ever changes back, and no other write ever touches the table,
    so a reachable word keeps its record for the memory's lifetime. *)

val page_log2 : int
(** 6: one granule byte per 64-word page. *)

val page_words : int
val line_log2 : int
(** 2: array pages, stacks and unclaimed memory use 4-word lines. *)

val granules : t -> Bytes.t
(** The page table itself, shared (not copied): byte [addr lsr page_log2]
    is [addr]'s granule.  Read-only for everyone but {!mark_word_pages}. *)

val mark_word_pages : t -> lo:addr -> hi:addr -> unit
(** [mark_word_pages t ~lo ~hi] sets every page meeting [\[lo, hi)] to
    0, one-word granules ([lo < hi]).  Only an arena's record cursor
    calls it. *)
