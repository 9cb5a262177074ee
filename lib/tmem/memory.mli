(** Flat word-addressed transactional memory.

    One big [int array] plays the role of the process address space:
    workload "pointers" are indices into it.  Capture analysis is about
    address ranges, so a simulated address space exposes exactly the
    structure the paper's runtime checks need (contiguous stacks, arbitrary
    heap blocks) while staying observable and deterministic.

    Cells are read and written with plain (non-atomic) array accesses:
    under the OCaml memory model racy int accesses are defined (no
    tearing), and the STM's ownership records — which are [Atomic.t] —
    provide all required synchronisation, exactly as lock words do for a
    C runtime. *)

type t

type addr = int
(** Word address; [null] = 0 is never a valid data address. *)

val null : addr

(** [create ~words] allocates a memory of [words] cells, zero-filled. *)
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

val blit_of_array : t -> int array -> int -> addr -> int -> unit

(** {2 Conflict granules}

    Every [page_words]-word page carries one byte: the log2 of the
    conflict-detection granule of its words, that is how many aligned
    words share one ownership record ({!Captured_stm.Orec.index_of}).
    A fresh memory is all [line_log2] (4-word lines).  {!Alloc} turns a
    page to [word_log2] (one record per word) when an arena's record
    cursor first claims it, before any block on it is handed out; no
    page ever changes back, and no other write ever touches the table,
    so a reachable word keeps its record for the memory's lifetime. *)

val page_log2 : int
(** 6: one granule byte per 64-word page. *)

val page_words : int
val line_log2 : int
(** 2: array pages, stacks and unclaimed memory use 4-word lines. *)

val word_log2 : int
(** 0: record pages use one-word granules. *)

val granules : t -> Bytes.t
(** The page table itself, shared (not copied): byte [addr lsr page_log2]
    is [addr]'s granule.  Read-only for everyone but {!mark_word_pages}. *)

val mark_word_pages : t -> lo:addr -> hi:addr -> unit
(** [mark_word_pages t ~lo ~hi] sets every page meeting [\[lo, hi)] to
    [word_log2] ([lo < hi]).  Only an arena's record cursor calls it. *)
