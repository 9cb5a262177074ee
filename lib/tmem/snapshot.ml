(* Checkpoint image of a memory plus its arena allocators.

   Snapshots are sparse: only non-zero cells are recorded (fresh memory
   and freed-then-reused regions are mostly zero, so this keeps
   checkpoint records proportional to live data).  Capture walks the
   memory's resident chunks only, and restore writes only the recorded
   cells into a fresh memory, so both cost what the image holds, not the
   memory's size.  The allocator side is tiny — free lists are threaded
   through memory cells themselves, so a [state] record per arena
   (base/limit/both cursors/class heads/live counts) completes the
   image.

   Integrity is the WAL's job: a snapshot travels inside a checkpoint
   record whose frame checksum covers every word here, so [decode] only
   needs structural bounds checks, not its own checksum. *)

type t = {
  mem_words : int;  (* Memory.size of the captured memory *)
  cells : (int * int) array;  (* non-zero (addr, value), ascending addr *)
  arenas : Alloc.state array;
}

let capture memory arenas =
  let n = ref 0 in
  Memory.iter_nonzero memory (fun _ _ -> incr n);
  let cells = Array.make !n (0, 0) in
  let k = ref 0 in
  Memory.iter_nonzero memory (fun addr v ->
      cells.(!k) <- (addr, v);
      incr k);
  {
    mem_words = Memory.size memory;
    cells;
    arenas = Array.map Alloc.capture_state arenas;
  }

let restore t =
  let memory = Memory.create ~words:t.mem_words in
  Array.iter (fun (addr, v) -> Memory.set memory addr v) t.cells;
  (memory, Array.map (Alloc.restore_state memory) t.arenas)

(* Word encoding, consumed by the WAL checkpoint record:
   [mem_words; n_cells; (addr value)*; n_arenas;
    per arena: base words records_top arrays_low live_blocks live_words
               n_classes head*] *)

let encoded_words t =
  let per_arena s = 7 + Array.length s.Alloc.s_free_lists in
  2
  + (2 * Array.length t.cells)
  + 1
  + Array.fold_left (fun acc s -> acc + per_arena s) 0 t.arenas

let encode t =
  let out = Array.make (encoded_words t) 0 in
  let k = ref 0 in
  let put v =
    out.(!k) <- v;
    incr k
  in
  put t.mem_words;
  put (Array.length t.cells);
  Array.iter
    (fun (addr, v) ->
      put addr;
      put v)
    t.cells;
  put (Array.length t.arenas);
  Array.iter
    (fun s ->
      put s.Alloc.s_base;
      put s.Alloc.s_words;
      put s.Alloc.s_records_top;
      put s.Alloc.s_arrays_low;
      put s.Alloc.s_live_blocks;
      put s.Alloc.s_live_words;
      put (Array.length s.Alloc.s_free_lists);
      Array.iter put s.Alloc.s_free_lists)
    t.arenas;
  out

let decode words =
  let k = ref 0 in
  let len = Array.length words in
  let take () =
    if !k >= len then failwith "snapshot truncated";
    let v = words.(!k) in
    incr k;
    v
  in
  match
    let mem_words = take () in
    if mem_words <= 0 then failwith "snapshot: bad memory size";
    let n_cells = take () in
    if n_cells < 0 || n_cells > len then failwith "snapshot: bad cell count";
    let cells =
      Array.init n_cells (fun _ ->
          let addr = take () in
          let v = take () in
          if addr <= 0 || addr >= mem_words then
            failwith "snapshot: cell out of range";
          (addr, v))
    in
    let n_arenas = take () in
    if n_arenas < 0 || n_arenas > len then failwith "snapshot: bad arena count";
    let arenas =
      Array.init n_arenas (fun _ ->
          let s_base = take () in
          let s_words = take () in
          let s_records_top = take () in
          let s_arrays_low = take () in
          let s_live_blocks = take () in
          let s_live_words = take () in
          (* [Alloc.restore_state] marks record pages up to the record
             cursor, so it must lie inside the memory. *)
          if s_base <= 0 || s_words < 4 || s_records_top > mem_words then
            failwith "snapshot: arena out of range";
          let n_classes = take () in
          if n_classes < 0 || n_classes > len then
            failwith "snapshot: bad class count";
          let s_free_lists = Array.init n_classes (fun _ -> take ()) in
          {
            Alloc.s_base;
            s_words;
            s_records_top;
            s_arrays_low;
            s_free_lists;
            s_live_blocks;
            s_live_words;
          })
    in
    if !k <> len then failwith "snapshot: trailing words";
    { mem_words; cells; arenas }
  with
  | snap -> Ok snap
  | exception Failure msg -> Error msg

let live_cells t = Array.length t.cells
