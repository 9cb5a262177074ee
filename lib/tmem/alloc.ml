(* Size classes: exact sizes 1..64, then one class per power of two up to the
   region size.  Class index <-> smallest payload it serves.

   Two cursors carve the region from its two ends.  Records (carved payload
   of at most [record_words] words) pack upward from the first page
   boundary at or above [base]; every page the record cursor claims is
   turned to one-word conflict granules before a block on it is handed out
   ({!Memory.mark_word_pages}).  Arrays carve downward from [limit] with
   4-word-aligned payloads, on pages that keep 4-word lines.  The two never
   share a page. *)

type t = {
  memory : Memory.t;
  base : Memory.addr;
  limit : Memory.addr;
  mutable records_top : Memory.addr;
      (* records fill [page_up base, records_top) *)
  mutable records_end : Memory.addr; (* page_up records_top *)
  mutable arrays_low : Memory.addr; (* arrays fill [arrays_low, limit) *)
  free_lists : Memory.addr array; (* head payload address per class, 0 = empty *)
  mutable live_blocks : int;
  mutable live_words : int;
}

exception Out_of_memory

let exact_classes = 64
let num_classes = exact_classes + 48

(* One 64-byte cache line.  A record fits one, so one record per word costs
   at most eight ownership records a block; above that, blocks are arrays
   and share a record per 4-word line (EXPERIMENTS.md, "Conflict granule
   per block"). *)
let record_words = 8
let is_record size = size <= record_words

let line_words = 1 lsl Memory.line_log2

let class_of_size n =
  if n <= exact_classes then n - 1
  else
    (* One class per power of two above 64. *)
    let rec log2 v acc = if v <= 1 then acc else log2 (v lsr 1) (acc + 1) in
    let l = log2 (n - 1) 0 + 1 in
    exact_classes + (l - 7)

(* The size actually carved for a request, so that every block in a class has
   the same capacity and can be reused for any request mapping there. *)
let carve_size n = if n <= exact_classes then n else 1 lsl (class_of_size n - exact_classes + 7)

let page_up a = (a + Memory.page_words - 1) land lnot (Memory.page_words - 1)

let create memory ~base ~words =
  if base <= 0 || words < 4 then invalid_arg "Alloc.create";
  let limit = base + words in
  {
    memory;
    base;
    limit;
    records_top = page_up base;
    records_end = page_up base;
    arrays_low = limit land lnot (line_words - 1);
    free_lists = Array.make num_classes 0;
    live_blocks = 0;
    live_words = 0;
  }

(* Advance the record cursor to [top], first claiming the pages it
   enters. *)
let claim_records t top =
  if top > t.records_end then begin
    Memory.mark_word_pages t.memory ~lo:t.records_end ~hi:top;
    t.records_end <- page_up top
  end;
  if top > t.records_top then t.records_top <- top

let header_of t addr = Memory.get t.memory (addr - 1)
let set_header t addr size allocated =
  Memory.set t.memory (addr - 1) ((size lsl 1) lor (if allocated then 1 else 0))

let payload_size header = header lsr 1
let is_allocated header = header land 1 = 1

let owns t addr = addr >= t.base && addr < t.limit

let alloc t n =
  if n <= 0 then invalid_arg "Alloc.alloc: non-positive size";
  let size = carve_size n in
  let cls = class_of_size n in
  let addr =
    let head = t.free_lists.(cls) in
    if head <> 0 then begin
      (* Pop: first payload word links to the next free block. *)
      t.free_lists.(cls) <- Memory.get t.memory head;
      head
    end
    else if is_record size then begin
      let addr = t.records_top + 1 in
      let top = addr + size in
      (* New record pages must end at or below the array cursor. *)
      if top <= t.records_end then t.records_top <- top
      else if page_up top <= t.arrays_low then claim_records t top
      else raise Out_of_memory;
      addr
    end
    else begin
      (* Payload on a line boundary, header just below it: the block's
         lines hold no other block's payload. *)
      let addr = (t.arrays_low - size) land lnot (line_words - 1) in
      if addr - 1 < t.records_end then raise Out_of_memory;
      t.arrays_low <- addr - 1;
      addr
    end
  in
  set_header t addr size true;
  (* Fresh memory must read as zero, like calloc: reused blocks carry the
     free-list link and stale data. *)
  for i = addr to addr + size - 1 do
    Memory.set t.memory i 0
  done;
  t.live_blocks <- t.live_blocks + 1;
  t.live_words <- t.live_words + size;
  addr

(* Note: no [owns] check — a block may be freed into a different arena than
   the one that carved it ("freeing thread keeps it", Hoard-style), which
   lets cross-thread frees proceed without synchronisation. *)
let check_live t addr =
  if addr <= 1 then invalid_arg "Alloc: bad address";
  let header = header_of t addr in
  if not (is_allocated header) then invalid_arg "Alloc: block not allocated";
  payload_size header

let free t addr =
  let size = check_live t addr in
  set_header t addr size false;
  let cls = class_of_size size in
  Memory.set t.memory addr t.free_lists.(cls);
  t.free_lists.(cls) <- addr;
  t.live_blocks <- t.live_blocks - 1;
  t.live_words <- t.live_words - size

let block_size t addr = check_live t addr
let live_blocks t = t.live_blocks
let live_words t = t.live_words
let mem t = t.memory
let base t = t.base

(* ------------------------------------------------------------------ *)
(* Checkpoint / recovery support (durable transactions)                 *)

(* The whole OCaml-side allocator state fits in a few words plus the
   free-list heads: the lists themselves live IN memory cells (the first
   payload word of each free block links to the next), so a memory image
   plus this record reconstructs the allocator exactly. *)
type state = {
  s_base : Memory.addr;
  s_words : int;
  s_records_top : Memory.addr;
  s_arrays_low : Memory.addr;
  s_free_lists : int array;
  s_live_blocks : int;
  s_live_words : int;
}

let capture_state t =
  {
    s_base = t.base;
    s_words = t.limit - t.base;
    s_records_top = t.records_top;
    s_arrays_low = t.arrays_low;
    s_free_lists = Array.copy t.free_lists;
    s_live_blocks = t.live_blocks;
    s_live_words = t.live_words;
  }

let restore_state memory s =
  if Array.length s.s_free_lists <> num_classes then
    invalid_arg "Alloc.restore_state: class count mismatch";
  let t = create memory ~base:s.s_base ~words:s.s_words in
  Array.blit s.s_free_lists 0 t.free_lists 0 num_classes;
  t.arrays_low <- s.s_arrays_low;
  t.live_blocks <- s.s_live_blocks;
  t.live_words <- s.s_live_words;
  (* Re-mark the record pages: the restored memory's page table must map
     every word to the record it had when the state was captured. *)
  claim_records t s.s_records_top;
  t

(* Remove a specific block from this arena's free lists, if present.
   Free lists are singly linked through the first payload word, so a hit
   is an O(list) walk — recovery-path only, never on the hot path.  The
   common recovery miss (the block is free in a *different* arena, or
   not free at all) is answered in O(1) from the block's own header:
   an allocated bit or a class mismatch means it cannot be on this
   class's list, so the walk is skipped entirely. *)
let unlink_free t ~addr ~size =
  let cls = class_of_size size in
  let header = header_of t addr in
  if is_allocated header || class_of_size (payload_size header) <> cls then
    false
  else
  let head = t.free_lists.(cls) in
  if head = 0 then false
  else if head = addr then begin
    t.free_lists.(cls) <- Memory.get t.memory addr;
    true
  end
  else begin
    let rec go prev =
      let next = Memory.get t.memory prev in
      if next = 0 then false
      else if next = addr then begin
        Memory.set t.memory prev (Memory.get t.memory addr);
        true
      end
      else go next
    in
    go head
  end

(* Address-faithful replay of a logged allocation: the block goes exactly
   where the original run put it.  A block carved beyond the snapshot's
   cursor of its kind advances that cursor, and a record block re-marks
   the pages the record cursor claimed (any gap left by allocations that
   never committed stays dead space — the allocator never walks the heap,
   so unreachable gaps are harmless).  The caller is responsible for
   unlinking the block from a free list first ({!unlink_free} — possibly
   a different arena's, cross-thread frees move blocks between arenas)
   and for writing the payload image. *)
let replay_alloc_at t ~addr ~size =
  if not (owns t addr) then invalid_arg "Alloc.replay_alloc_at: not owned";
  if is_record size then claim_records t (addr + size)
  else if addr - 1 < t.arrays_low then t.arrays_low <- addr - 1;
  set_header t addr size true;
  t.live_blocks <- t.live_blocks + 1;
  t.live_words <- t.live_words + size
