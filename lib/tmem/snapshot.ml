(* Checkpoint image of a memory plus its arena allocators.

   The image's word encoding is run-length over the memory:

     [mem_words; n_runs; (addr len v_1 .. v_len)*; n_arenas;
      per arena: base words records_top arrays_low live_blocks live_words
                 n_classes head*]

   Runs are maximal stretches of consecutive non-zero words, in
   ascending, disjoint order; every word outside them is 0 (fresh memory
   and freed-then-reused regions are mostly zero, so the image is
   proportional to live data, plus two words per run).  An [image] finds
   the runs in one scan of the memory's resident chunks
   ([Memory.iter_runs]) and sizes the encoding exactly; writing it
   streams the words to a sink through one small buffer, so a WAL
   checkpoint encodes straight into its record; restore writes only the
   runs into a fresh memory.  Both cost
   what the image holds, not the memory's size.  The allocator side is
   tiny — free lists are threaded through memory cells themselves, so a
   [state] per arena (base/limit/both cursors/class heads/live counts)
   completes the image.

   Integrity is the WAL's job: a snapshot travels inside a checkpoint
   record whose frame checksum covers every word here, so decoding only
   needs structural checks, not its own checksum.  Recovery restores
   straight from the log's bytes ([restore_words]), so no copy of the
   image is made on the way back either. *)

let header_words = 2

let arena_words states =
  Array.fold_left
    (fun acc s -> acc + 7 + Array.length s.Alloc.s_free_lists)
    1 states

(* A live memory's image, found but not copied: the runs as (addr, len)
   pairs and the arenas' states.  Its values are read when it is
   written. *)
type image = {
  memory : Memory.t;
  runs : int array;
  n_runs : int;
  cells : int;
  states : Alloc.state array;
}

let image memory arenas =
  let states = Array.map Alloc.capture_state arenas in
  let runs = ref (Array.make 512 0) and n_runs = ref 0 and cells = ref 0 in
  Memory.iter_runs memory (fun addr n ->
      let i = 2 * !n_runs in
      if i = Array.length !runs then begin
        let a = Array.make (2 * i) 0 in
        Array.blit !runs 0 a 0 i;
        runs := a
      end;
      !runs.(i) <- addr;
      !runs.(i + 1) <- n;
      incr n_runs;
      cells := !cells + n);
  { memory; runs = !runs; n_runs = !n_runs; cells = !cells; states }

let image_words im =
  header_words + (2 * im.n_runs) + im.cells + arena_words im.states

(* Words go through one buffer of this many, handed to the sink each
   time it fills: the encoding is never whole in memory. *)
let buffer_words = 1024

let write_image im sink =
  let buf = Array.make buffer_words 0 and k = ref 0 in
  let flush () =
    if !k > 0 then begin
      sink buf 0 !k;
      k := 0
    end
  in
  let put v =
    if !k = buffer_words then flush ();
    buf.(!k) <- v;
    incr k
  in
  put (Memory.size im.memory);
  put im.n_runs;
  for r = 0 to im.n_runs - 1 do
    let addr = im.runs.(2 * r) and n = im.runs.((2 * r) + 1) in
    put addr;
    put n;
    let copied = ref 0 in
    while !copied < n do
      if !k = buffer_words then flush ();
      let m = min (n - !copied) (buffer_words - !k) in
      Memory.blit_to_array im.memory (addr + !copied) buf !k m;
      k := !k + m;
      copied := !copied + m
    done
  done;
  put (Array.length im.states);
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
    im.states;
  flush ()

(* Structural parse of the [len]-word encoding whose [i]th word is
   [word i].  [into mem_words] is called once the memory size is known
   and returns the sink each run is handed to, as [addr i n] with [i]
   the index of its first value word.  Returns the arena states. *)
let parse ~len word ~into =
  let k = ref 0 in
  let take () =
    if !k >= len then failwith "snapshot truncated";
    let v = word !k in
    incr k;
    v
  in
  match
    let mem_words = take () in
    if mem_words <= 0 then failwith "snapshot: bad memory size";
    let run = into mem_words in
    let n_runs = take () in
    if n_runs < 0 || n_runs > len then failwith "snapshot: bad run count";
    let next = ref 1 in
    for _ = 1 to n_runs do
      let addr = take () in
      let n = take () in
      if n <= 0 then failwith "snapshot: empty run";
      if addr < !next then failwith "snapshot: runs out of order";
      if n > mem_words - addr then failwith "snapshot: run out of range";
      if n > len - !k then failwith "snapshot truncated";
      run addr !k n;
      k := !k + n;
      next := addr + n
    done;
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
    arenas
  with
  | arenas -> Ok arenas
  | exception Failure msg -> Error msg

let restore_words ~len word =
  let memory = ref None in
  let into words =
    let m = Memory.create ~words in
    memory := Some m;
    fun addr i n ->
      for j = 0 to n - 1 do
        Memory.set m (addr + j) (word (i + j))
      done
  in
  match parse ~len word ~into with
  | Error _ as e -> e
  | Ok states ->
      let m = Option.get !memory in
      Ok (m, Array.map (Alloc.restore_state m) states)
