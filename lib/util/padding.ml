(* Cache-line padding for contended atomics.

   OCaml 5.1 has no [Atomic.make_contended] (that arrived in 5.2), and
   [Atomic.make] allocates a two-word block — so an [int Atomic.t array]
   built by consecutive [Atomic.make] calls packs four records per
   64-byte line and every CAS invalidates its three neighbours' lines
   (false sharing).  The fix is the one multicore-magic ships for kcas
   and saturn: allocate the atomic's block with enough trailing fields
   that it spans a whole cache line on its own.

   Representation dependency, stated once: an ['a Atomic.t] is an
   ordinary tag-0 block whose *first field* is the atomic location — all
   of [Atomic.get]/[set]/[compare_and_set]/[fetch_and_add] operate on
   field 0 and never inspect the block size.  A tag-0 block with extra
   (immediate, GC-inert) fields is therefore a valid [int Atomic.t].
   The OCaml 5 major heap does not move objects, so a promoted padded
   cell keeps its line to itself for life; in the minor heap the cells
   are short-lived and contention there is not a concern. *)

let cache_line_bytes = 64

(* Fields per padded block: one cache line's worth of words.  The header
   word makes the allocated block slightly overhang one line, which is
   fine — neighbouring padded cells still never share a line. *)
let pad_words = cache_line_bytes / (Sys.word_size / 8)

let padded_atomic (v : int) : int Atomic.t =
  (* [Obj.new_block 0 n] zero-initialises every field with [Val_unit]
     (immediates), so the block is GC-safe before we overwrite field 0. *)
  let b = Obj.new_block 0 pad_words in
  Obj.set_field b 0 (Obj.repr v);
  (Obj.obj b : int Atomic.t)

(* [n] padded cells allocated back-to-back, one line each (per-thread
   slots that every domain polls, such as EBR announcements). *)
let padded_table n (v : int) : int Atomic.t array =
  if n < 0 then invalid_arg "Padding.padded_table: negative size";
  Array.init n (fun _ -> padded_atomic v)
