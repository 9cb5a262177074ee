type addr = int

(* Cells live in [chunk_words]-word chunks, reached through one table
   slot per chunk.  Every slot starts on [zero_chunk], which is shared by
   every memory and never written: a read of an untouched chunk returns
   its 0, a zero store leaves it in place, and the first non-zero store
   replaces the slot with a fresh chunk of its own ([materialize]).  A slot
   therefore changes at most once, so a world pays heap only for the
   chunks its workload writes, however much address space it reserves.

   [granules] holds one byte per [page_words]-word page: the log2 of the
   conflict granule (words per ownership record) for every word on the
   page.  Pages start on 4-word array lines and turn to one-word granules
   once, when an arena's record cursor first claims them ({!Alloc}). *)
type t = {
  words : int;
  chunks : int array array;
  grow : Mutex.t;  (* serializes materializations *)
  granules : Bytes.t;
}

let null = 0

let chunk_log2 = 10
let chunk_words = 1 lsl chunk_log2
let chunk_mask = chunk_words - 1
let zero_chunk = Array.make chunk_words 0

let page_log2 = 6
let page_words = 1 lsl page_log2
let line_log2 = 2
let word_log2 = 0

let create ~words =
  if words < 2 then invalid_arg "Memory.create: too small";
  {
    words;
    chunks = Array.make ((words + chunk_mask) lsr chunk_log2) zero_chunk;
    grow = Mutex.create ();
    granules =
      Bytes.make ((words + page_words - 1) lsr page_log2) (Char.chr line_log2);
  }

let size t = t.words

(* Chunk [i], materialized if it was still the zero chunk.  Domains can
   race to store into the same untouched chunk: the re-check under
   [grow] lets exactly one of them install a chunk, and the others then
   store into that one. *)
let[@inline never] materialize t i =
  Mutex.lock t.grow;
  let c = t.chunks.(i) in
  let c =
    if c != zero_chunk then c
    else begin
      let fresh = Array.make chunk_words 0 in
      t.chunks.(i) <- fresh;
      fresh
    end
  in
  Mutex.unlock t.grow;
  c

(* The accessors keep their slow paths in tail calls, so the fast path
   makes no call and needs no stack frame. *)
let[@inline never] first_store t i off v =
  Array.unsafe_set (materialize t i) off v

(* Unchecked accessors for the STM barrier fast paths, which have already
   range-checked the address (Validation.sandbox_bounds runs before any memory
   touch).  Everything else keeps the checked accessors. *)
let unsafe_get t addr =
  Array.unsafe_get
    (Array.unsafe_get t.chunks (addr lsr chunk_log2))
    (addr land chunk_mask)

let unsafe_set t addr v =
  let i = addr lsr chunk_log2 in
  let c = Array.unsafe_get t.chunks i in
  if c != zero_chunk then Array.unsafe_set c (addr land chunk_mask) v
  else if v <> 0 then first_store t i (addr land chunk_mask) v

(* The checked accessors raise their own message below 1 and an array
   access's bounds error from [size] up, so paging stays invisible to
   callers that match on either. *)
let[@inline never] bad_addr addr msg =
  invalid_arg (if addr <= 0 then msg else "index out of bounds")

let get t addr =
  if addr > 0 && addr < t.words then unsafe_get t addr
  else bad_addr addr "Memory.get: null/negative address"

let set t addr v =
  if addr > 0 && addr < t.words then unsafe_set t addr v
  else bad_addr addr "Memory.set: null/negative address"

(* [Array.blit]'s own range check, with the memory as the array at
   [addr]. *)
let check_blit t addr a pos len =
  if len < 0 || addr > t.words - len || pos < 0 || pos > Array.length a - len
  then invalid_arg "Array.blit"

(* [f chunk off pos n] for each chunk-bounded piece of [len] words from
   [addr], [pos] advancing alongside. *)
let rec pieces f addr pos len =
  if len > 0 then begin
    let off = addr land chunk_mask in
    let n = min len (chunk_words - off) in
    f (addr lsr chunk_log2) off pos n;
    pieces f (addr + n) (pos + n) (len - n)
  end

(* A loop rather than [Array.blit], which stores into an array outside
   the minor heap through [caml_modify], one call per word; [dst] holds
   ints, so plain stores do.  A checkpoint copies its whole image this
   way. *)
let blit_to_array t src dst dst_pos len =
  if src <= 0 then invalid_arg "Memory.blit_to_array";
  check_blit t src dst dst_pos len;
  pieces
    (fun i off pos n ->
      let c = t.chunks.(i) in
      for j = 0 to n - 1 do
        Array.unsafe_set dst (pos + j) (Array.unsafe_get c (off + j))
      done)
    src dst_pos len

let copy t =
  {
    t with
    chunks =
      Array.map (fun c -> if c == zero_chunk then c else Array.copy c) t.chunks;
    grow = Mutex.create ();
    granules = Bytes.copy t.granules;
  }

(* One scan over the resident chunks, carrying the open run across chunk
   boundaries; an untouched chunk is all zero, so it closes any run. *)
let iter_runs t f =
  let start = ref (-1) in
  for i = 0 to Array.length t.chunks - 1 do
    let c = Array.unsafe_get t.chunks i in
    let base = i lsl chunk_log2 in
    if c == zero_chunk then begin
      if !start >= 0 then begin
        f !start (base - !start);
        start := -1
      end
    end
    else
      for off = 0 to chunk_mask do
        if Array.unsafe_get c off <> 0 then begin
          if !start < 0 && base + off > 0 then start := base + off
        end
        else if !start >= 0 then begin
          f !start (base + off - !start);
          start := -1
        end
      done
  done;
  if !start >= 0 then f !start (t.words - !start)

let resident_words t =
  Array.fold_left
    (fun n c -> if c == zero_chunk then n else n + chunk_words)
    0 t.chunks

let granules t = t.granules

let mark_word_pages t ~lo ~hi =
  for p = lo lsr page_log2 to (hi - 1) lsr page_log2 do
    Bytes.set t.granules p (Char.chr word_log2)
  done
