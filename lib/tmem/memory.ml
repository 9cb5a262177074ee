type addr = int

(* [granules] holds one byte per [page_words]-word page: the log2 of the
   conflict granule (words per ownership record) for every word on the
   page.  Pages start on 4-word array lines and turn to one-word granules
   once, when an arena's record cursor first claims them ({!Alloc}). *)
type t = { cells : int array; granules : Bytes.t }

let null = 0

let page_log2 = 6
let page_words = 1 lsl page_log2
let line_log2 = 2
let word_log2 = 0

let create ~words =
  if words < 2 then invalid_arg "Memory.create: too small";
  {
    cells = Array.make words 0;
    granules =
      Bytes.make ((words + page_words - 1) lsr page_log2) (Char.chr line_log2);
  }

let size t = Array.length t.cells

let get t addr =
  if addr <= 0 then invalid_arg "Memory.get: null/negative address";
  t.cells.(addr)

let set t addr v =
  if addr <= 0 then invalid_arg "Memory.set: null/negative address";
  t.cells.(addr) <- v

(* Unchecked accessors for the STM barrier fast paths, which have already
   range-checked the address (Txn.sandbox_bounds runs before any memory
   touch).  Everything else keeps the checked accessors. *)
let unsafe_get t addr = Array.unsafe_get t.cells addr
let unsafe_set t addr v = Array.unsafe_set t.cells addr v

let blit_to_array t src dst dst_pos len =
  if src <= 0 then invalid_arg "Memory.blit_to_array";
  Array.blit t.cells src dst dst_pos len

let blit_of_array t src src_pos dst len =
  if dst <= 0 then invalid_arg "Memory.blit_of_array";
  Array.blit src src_pos t.cells dst len

let granules t = t.granules

let mark_word_pages t ~lo ~hi =
  for p = lo lsr page_log2 to (hi - 1) lsr page_log2 do
    Bytes.set t.granules p (Char.chr word_log2)
  done
