open Captured_tmem

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Memory *)

let test_memory_get_set () =
  let m = Memory.create ~words:128 in
  Memory.set m 5 42;
  check_int "get" 42 (Memory.get m 5);
  check_int "zero init" 0 (Memory.get m 6)

let test_memory_null_rejected () =
  let m = Memory.create ~words:128 in
  Alcotest.check_raises "get null" (Invalid_argument "Memory.get: null/negative address")
    (fun () -> ignore (Memory.get m 0));
  Alcotest.check_raises "set null" (Invalid_argument "Memory.set: null/negative address")
    (fun () -> Memory.set m 0 1)

(* Property: the unchecked accessors (used by the native STM barriers
   once the sandbox has validated the address) agree with the checked
   ones everywhere in contract, i.e. on 1 <= addr < size. *)
let prop_unsafe_agrees_with_checked =
  QCheck.Test.make ~name:"unsafe_get/unsafe_set agree with get/set"
    ~count:300
    QCheck.(list_of_size (Gen.int_range 1 50) (pair (int_range 1 127) small_int))
    (fun writes ->
      let checked = Memory.create ~words:128
      and unchecked = Memory.create ~words:128 in
      List.iter
        (fun (addr, v) ->
          Memory.set checked addr v;
          Memory.unsafe_set unchecked addr v)
        writes;
      List.for_all
        (fun addr ->
          Memory.get checked addr = Memory.unsafe_get unchecked addr
          && Memory.get checked addr = Memory.get unchecked addr)
        (List.init 127 (fun i -> i + 1)))

let test_memory_blit () =
  let m = Memory.create ~words:64 in
  let src = [| 1; 2; 3; 4 |] in
  Array.iteri (fun i v -> Memory.set m (10 + i) v) src;
  let dst = Array.make 4 0 in
  Memory.blit_to_array m 10 dst 0 4;
  Alcotest.(check (array int)) "roundtrip" src dst

(* Paging is invisible: random accessor sequences on a memory of three
   and a bit chunks agree with a flat zero-filled reference array driven
   by the flat-array code the chunk table replaced, in results and in
   raised exceptions.  Addresses and lengths crowd the chunk boundaries
   and the ends, and values are mostly 0, so zero stores land in
   untouched chunks and blits cross chunks.  The memory holds exactly the
   chunks that took a non-zero store, and its capture encodes exactly
   the runs a scan of the whole reference finds. *)
let paged_words = (3 * Memory.chunk_words) + 100

(* A memory's checkpoint encoding, as a WAL checkpoint record carries
   it: the image written out into one array. *)
let encode m arenas =
  let im = Snapshot.image m arenas in
  let out = Array.make (Snapshot.image_words im) 0 and k = ref 0 in
  Snapshot.write_image im (fun a pos n ->
      Array.blit a pos out !k n;
      k := !k + n);
  out

(* Check and restore an encoding, as recovery does from a log. *)
let restore words =
  Snapshot.restore_words ~len:(Array.length words) (Array.get words)

let restored words =
  match restore words with
  | Ok r -> r
  | Error e -> Alcotest.failf "restore failed: %s" e

(* The run-length image of a flat memory, as a snapshot encodes it:
   [addr; len; v_1 .. v_len] per maximal run of non-zero words above
   address 0, in ascending order, and the number of runs. *)
let runs_of flat =
  let size = Array.length flat in
  let rec go acc n a =
    if a >= size then (List.concat (List.rev acc), n)
    else if flat.(a) = 0 then go acc n (a + 1)
    else begin
      let e = ref a in
      while !e < size && flat.(!e) <> 0 do
        incr e
      done;
      let run = a :: (!e - a) :: Array.to_list (Array.sub flat a (!e - a)) in
      go (run :: acc) (n + 1) !e
    end
  in
  go [] 0 1

let blit_buf = 5000

type mem_op =
  | Get of int
  | Set of int * int
  | Unsafe_set of int * int
  | Blit_to of int * int * int  (** src, dst_pos, len *)

let show_mem_op = function
  | Get a -> Printf.sprintf "get %d" a
  | Set (a, v) -> Printf.sprintf "set %d %d" a v
  | Unsafe_set (a, v) -> Printf.sprintf "unsafe_set %d %d" a v
  | Blit_to (a, p, l) -> Printf.sprintf "blit_to %d [%d] %d" a p l

let arb_mem_ops =
  let open QCheck.Gen in
  let cw = Memory.chunk_words in
  let addr =
    frequency
      [
        (3, int_range 1 (paged_words - 1));
        (3, map2 (fun k d -> (k * cw) + d) (int_range 0 3) (int_range (-3) 3));
        (1, oneofl [ -1; 0; 1; paged_words - 1; paged_words; paged_words + 1 ]);
      ]
  in
  let valid = map (fun a -> max 1 (min a (paged_words - 1))) addr in
  let value = frequency [ (2, return 0); (3, int_range (-9) 9) ] in
  let len =
    frequency [ (3, int_range 0 8); (2, int_range 0 (2 * cw)); (1, return (-1)) ]
  in
  let pos =
    frequency [ (5, int_range 0 50); (1, oneofl [ -1; blit_buf - 1; blit_buf ]) ]
  in
  let op =
    frequency
      [
        (3, map (fun a -> Get a) addr);
        (3, map2 (fun a v -> Set (a, v)) addr value);
        (2, map2 (fun a v -> Unsafe_set (a, v)) valid value);
        (2, map3 (fun a p l -> Blit_to (a, p, l)) addr pos len);
      ]
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_mem_op ops))
    (list_size (int_range 1 40) op)

(* What an operation returned, or the exception it raised. *)
let outcome f =
  match f () with v -> Ok v | exception Invalid_argument m -> Error m

let prop_paging_invisible =
  QCheck.Test.make ~name:"paged memory agrees with a flat array" ~count:200
    arb_mem_ops (fun ops ->
      let m = Memory.create ~words:paged_words in
      let flat = Array.make paged_words 0 in
      (* Chunks a non-zero store reached, by index. *)
      let written = Hashtbl.create 4 in
      let wrote a v =
        if v <> 0 then Hashtbl.replace written (a / Memory.chunk_words) ()
      in
      let same name paged reference =
        if outcome paged <> outcome reference then
          QCheck.Test.fail_reportf "%s: paged and flat disagree" name
      in
      List.iter
        (fun op ->
          match op with
          | Get a ->
              same (show_mem_op op)
                (fun () -> [ Memory.get m a ])
                (fun () ->
                  if a <= 0 then invalid_arg "Memory.get: null/negative address";
                  [ flat.(a) ])
          | Set (a, v) ->
              same (show_mem_op op)
                (fun () -> [ Memory.set m a v ])
                (fun () ->
                  if a <= 0 then invalid_arg "Memory.set: null/negative address";
                  flat.(a) <- v;
                  wrote a v;
                  [ () ])
          | Unsafe_set (a, v) ->
              Memory.unsafe_set m a v;
              flat.(a) <- v;
              wrote a v
          | Blit_to (a, p, l) ->
              let mine = Array.make blit_buf 7 and ref_ = Array.make blit_buf 7 in
              same (show_mem_op op)
                (fun () -> Memory.blit_to_array m a mine p l)
                (fun () ->
                  if a <= 0 then invalid_arg "Memory.blit_to_array";
                  Array.blit flat a ref_ p l);
              if mine <> ref_ then
                QCheck.Test.fail_reportf "%s: copied words differ"
                  (show_mem_op op))
        ops;
      for a = 1 to paged_words - 1 do
        if Memory.get m a <> flat.(a) then
          QCheck.Test.fail_reportf "word %d: %d, flat %d" a (Memory.get m a)
            flat.(a)
      done;
      let runs, n_runs = runs_of flat in
      let reference = Array.of_list ((paged_words :: n_runs :: runs) @ [ 0 ]) in
      Memory.resident_words m = Hashtbl.length written * Memory.chunk_words
      && encode m [||] = reference)

let test_memory_resident_words () =
  let cw = Memory.chunk_words in
  let m = Memory.create ~words:(4 * cw) in
  check_int "fresh" 0 (Memory.resident_words m);
  for a = 1 to (4 * cw) - 1 do
    ignore (Memory.get m a : int)
  done;
  Memory.blit_to_array m 1 (Array.make cw 0) 0 cw;
  check_int "reads" 0 (Memory.resident_words m);
  Memory.set m (cw + 5) 0;
  Memory.set m (2 * cw) 0;
  check_int "zero stores" 0 (Memory.resident_words m);
  Memory.set m (cw + 5) 3;
  check_int "first non-zero store" cw (Memory.resident_words m);
  Memory.set m (cw + 6) 4;
  check_int "same chunk" cw (Memory.resident_words m);
  ignore (Memory.get m (3 * cw) : int);
  check_int "read after" cw (Memory.resident_words m);
  Memory.unsafe_set m (3 * cw) 1;
  check_int "second chunk" (2 * cw) (Memory.resident_words m)

(* ------------------------------------------------------------------ *)
(* Tstack *)

let test_stack_grows_down () =
  let m = Memory.create ~words:256 in
  let s = Tstack.create m ~base:10 ~words:100 in
  check_int "empty sp" 110 (Tstack.sp s);
  let a = Tstack.alloca s 4 in
  check_int "first block" 106 a;
  let b = Tstack.alloca s 6 in
  check "below" true (b < a)

let test_stack_save_restore () =
  let m = Memory.create ~words:256 in
  let s = Tstack.create m ~base:10 ~words:100 in
  let _ = Tstack.alloca s 10 in
  let f = Tstack.save s in
  let _ = Tstack.alloca s 20 in
  Tstack.restore s f;
  check_int "restored" f (Tstack.sp s)

let test_stack_overflow () =
  let m = Memory.create ~words:256 in
  let s = Tstack.create m ~base:10 ~words:16 in
  Alcotest.check_raises "overflow" Tstack.Overflow (fun () ->
      ignore (Tstack.alloca s 17))

let test_stack_live_range () =
  let m = Memory.create ~words:256 in
  let s = Tstack.create m ~base:10 ~words:100 in
  let _ = Tstack.alloca s 10 in
  let mark = Tstack.save s in
  let a = Tstack.alloca s 4 in
  check "new block captured" true (Tstack.in_live_range s ~from_sp:mark a 4);
  check "old frame not captured" false
    (Tstack.in_live_range s ~from_sp:mark (mark + 2) 1);
  check "straddling not captured" false
    (Tstack.in_live_range s ~from_sp:mark a (mark - a + 1))

(* The range check is [sp, from_sp): both boundaries exact, and popping
   a frame immediately retires its addresses. *)
let test_stack_live_range_boundaries () =
  let m = Memory.create ~words:256 in
  let s = Tstack.create m ~base:10 ~words:100 in
  let _ = Tstack.alloca s 10 in
  let start_sp = Tstack.save s in
  let _ = Tstack.alloca s 8 in
  let sp = Tstack.sp s in
  check "word at sp live" true (Tstack.in_live_range s ~from_sp:start_sp sp 1);
  check "whole txn-local range live" true
    (Tstack.in_live_range s ~from_sp:start_sp sp (start_sp - sp));
  check "word below sp not live" false
    (Tstack.in_live_range s ~from_sp:start_sp (sp - 1) 1);
  check "word at start_sp not live" false
    (Tstack.in_live_range s ~from_sp:start_sp start_sp 1);
  check "last live word" true
    (Tstack.in_live_range s ~from_sp:start_sp (start_sp - 1) 1);
  check "one past start_sp excluded" false
    (Tstack.in_live_range s ~from_sp:start_sp sp (start_sp - sp + 1));
  (* Pop the frame: the same addresses must stop being live at once. *)
  Tstack.restore s start_sp;
  check "popped block no longer live" false
    (Tstack.in_live_range s ~from_sp:start_sp sp 1);
  check "empty range after pop" false
    (Tstack.in_live_range s ~from_sp:start_sp (start_sp - 1) 1);
  (* A fresh push after the pop is live again from the same [from_sp]. *)
  let b = Tstack.alloca s 4 in
  check "recycled block live again" true
    (Tstack.in_live_range s ~from_sp:start_sp b 4)

let test_stack_bad_restore () =
  let m = Memory.create ~words:256 in
  let s = Tstack.create m ~base:10 ~words:100 in
  let f = Tstack.save s in
  let _ = Tstack.alloca s 4 in
  Tstack.restore s f;
  Alcotest.check_raises "restore below sp"
    (Invalid_argument "Tstack.restore: bad frame") (fun () ->
      Tstack.restore s (f - 50))

(* ------------------------------------------------------------------ *)
(* Alloc *)

let mk_arena () =
  let m = Memory.create ~words:(1 lsl 16) in
  Alloc.create m ~base:1 ~words:((1 lsl 16) - 1)

let test_alloc_basic () =
  let a = mk_arena () in
  let p = Alloc.alloc a 8 in
  check_int "size" 8 (Alloc.block_size a p);
  check_int "live" 1 (Alloc.live_blocks a);
  Alloc.free a p;
  check_int "after free" 0 (Alloc.live_blocks a)

let test_alloc_zeroed () =
  let a = mk_arena () in
  let m = Alloc.mem a in
  let p = Alloc.alloc a 4 in
  for i = 0 to 3 do
    Memory.set m (p + i) 99
  done;
  Alloc.free a p;
  let q = Alloc.alloc a 4 in
  check_int "reused" p q;
  for i = 0 to 3 do
    check_int "zeroed" 0 (Memory.get m (q + i))
  done

let test_alloc_reuse_same_class () =
  let a = mk_arena () in
  let p = Alloc.alloc a 16 in
  Alloc.free a p;
  let q = Alloc.alloc a 16 in
  check_int "same block reused" p q

let test_alloc_distinct_blocks () =
  let a = mk_arena () in
  let p = Alloc.alloc a 4 and q = Alloc.alloc a 4 in
  check "disjoint" true (abs (p - q) >= 4)

let test_alloc_double_free () =
  let a = mk_arena () in
  let p = Alloc.alloc a 4 in
  Alloc.free a p;
  Alcotest.check_raises "double free"
    (Invalid_argument "Alloc: block not allocated") (fun () -> Alloc.free a p)

let test_alloc_oom () =
  let m = Memory.create ~words:64 in
  let a = Alloc.create m ~base:1 ~words:32 in
  Alcotest.check_raises "oom" Alloc.Out_of_memory (fun () ->
      for _ = 1 to 100 do
        ignore (Alloc.alloc a 8)
      done)

let test_alloc_large_class () =
  let a = mk_arena () in
  let p = Alloc.alloc a 100 in
  (* Rounded to the next power of two. *)
  check_int "carved" 128 (Alloc.block_size a p);
  Alloc.free a p;
  let q = Alloc.alloc a 120 in
  check_int "reused across sizes in class" p q

let test_alloc_foreign_free () =
  (* Freeing into a different arena (Hoard-style "freeing thread keeps it")
     must recycle the block there. *)
  let m = Memory.create ~words:(1 lsl 16) in
  let a = Alloc.create m ~base:1 ~words:1000 in
  let b = Alloc.create m ~base:2000 ~words:1000 in
  let p = Alloc.alloc a 8 in
  Alloc.free b p;
  let q = Alloc.alloc b 8 in
  check_int "recycled in b" p q

(* Property: allocations never overlap while live. *)
let prop_no_overlap =
  QCheck.Test.make ~name:"live blocks never overlap" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 60) (int_range 1 40))
    (fun sizes ->
      let a = mk_arena () in
      let g = Captured_util.Prng.create 11 in
      let live = ref [] in
      let overlap (p1, s1) (p2, s2) = p1 < p2 + s2 && p2 < p1 + s1 in
      List.for_all
        (fun n ->
          (* Randomly free one live block before allocating. *)
          (match !live with
          | (p, _) :: rest when Captured_util.Prng.bool g ->
              Alloc.free a p;
              live := rest
          | _ -> ());
          let p = Alloc.alloc a n in
          let sz = Alloc.block_size a p in
          let fresh = (p, sz) in
          let ok = List.for_all (fun b -> not (overlap fresh b)) !live in
          live := fresh :: !live;
          ok)
        sizes)

let prop_free_then_alloc_live_count =
  QCheck.Test.make ~name:"live counters track alloc/free" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 40) (int_range 1 20))
    (fun sizes ->
      let a = mk_arena () in
      let ps = List.map (Alloc.alloc a) sizes in
      let n = List.length sizes in
      let ok1 = Alloc.live_blocks a = n in
      List.iter (Alloc.free a) ps;
      ok1 && Alloc.live_blocks a = 0 && Alloc.live_words a = 0)

(* Property (recovery path): a block carved by [a] and freed into [b]
   (Hoard-style cross-arena free) is found and removed by [b]'s
   [unlink_free] — and provably absent from [a]'s lists — then
   re-materialised at its original address by [a]'s [replay_alloc_at].
   Live counters are per-arena deltas (a free lands on the freeing
   arena), so the conserved quantity is the cross-arena sum, which must
   return to the post-alloc totals. *)
let prop_cross_arena_free_replay =
  QCheck.Test.make
    ~name:"cross-arena free/unlink/replay round-trips live counts" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 40) (int_range 1 20))
    (fun sizes ->
      let m = Memory.create ~words:8192 in
      let a = Alloc.create m ~base:1 ~words:4000 in
      let b = Alloc.create m ~base:4100 ~words:4000 in
      let ps = List.map (Alloc.alloc a) sizes in
      let n = List.length ps in
      let words0 = Alloc.live_words a in
      let freed =
        List.filteri (fun i _ -> i mod 2 = 0) ps
        |> List.map (fun p -> (p, Alloc.block_size a p))
      in
      List.iter (fun (p, _) -> Alloc.free b p) freed;
      let k = List.length freed in
      let sum f = f a + f b in
      let ok_mid = sum Alloc.live_blocks = n - k in
      let ok_unlink =
        List.for_all
          (fun (p, size) ->
            (not (Alloc.unlink_free a ~addr:p ~size))
            && Alloc.unlink_free b ~addr:p ~size)
          freed
      in
      List.iter (fun (p, size) -> Alloc.replay_alloc_at a ~addr:p ~size) freed;
      let ok_counts =
        sum Alloc.live_blocks = n && sum Alloc.live_words = words0
      in
      (* The unlinked blocks are really off [b]'s lists: same-class
         allocations from [b] now carve [b]'s own region instead of
         handing out a block whose header reads allocated. *)
      let ok_fresh =
        List.for_all (fun (_, size) -> Alloc.owns b (Alloc.alloc b size)) freed
      in
      ok_mid && ok_unlink && ok_counts && ok_fresh)

(* ------------------------------------------------------------------ *)
(* Snapshot (checkpoint images for the durable-transaction layer) *)

(* Index of the arena count in an encoding: past the header and every
   [addr; len; values] run. *)
let arena_section words =
  let k = ref 2 in
  for _ = 1 to words.(1) do
    k := !k + 2 + words.(!k + 1)
  done;
  !k

(* Values an encoding's runs hold: its non-zero words. *)
let live_cells words =
  arena_section words - 2 - (2 * words.(1))

let test_snapshot_roundtrip () =
  let m = Memory.create ~words:256 in
  let a = Alloc.create m ~base:64 ~words:128 in
  Memory.set m 5 42;
  Memory.set m 17 (-9);
  let p = Alloc.alloc a 4 in
  let q = Alloc.alloc a 8 in
  Memory.set m p 7;
  Memory.set m (q + 3) 11;
  Alloc.free a p;
  let words = encode m [| a |] in
  check "sparse image nonempty" true (live_cells words >= 3);
  let m', arenas' = restored words in
  check_int "words" (Memory.size m) (Memory.size m');
  for addr = 1 to Memory.size m - 1 do
    if Memory.get m addr <> Memory.get m' addr then
      Alcotest.failf "cell %d: %d <> %d" addr (Memory.get m addr)
        (Memory.get m' addr)
  done;
  let a' = arenas'.(0) in
  check_int "arena base" (Alloc.base a) (Alloc.base a');
  check_int "arena live blocks" (Alloc.live_blocks a) (Alloc.live_blocks a');
  check_int "arena live words" (Alloc.live_words a) (Alloc.live_words a');
  (* The restored allocator must also have inherited the free list: the
     freed block [p] is the next allocation of its size class. *)
  check_int "free list carried over" p (Alloc.alloc a' 4)

let test_snapshot_decode_truncated () =
  (* Blocks are carved above the arena's first page boundary; one record
     and one array move both cursors. *)
  let m = Memory.create ~words:256 in
  let a = Alloc.create m ~base:40 ~words:152 in
  Memory.set m 3 1;
  ignore (Alloc.alloc a 4);
  ignore (Alloc.alloc a 12);
  let words = encode m [| a |] in
  for cut = 0 to Array.length words - 1 do
    match restore (Array.sub words 0 cut) with
    | Ok _ -> Alcotest.failf "truncation to %d words accepted" cut
    | Error _ -> ()
  done

(* The record cursor is where restore marks pages up to, so a snapshot
   whose cursor lies past the memory is rejected, not restored. *)
let test_snapshot_decode_rejects_bad_cursor () =
  let m = Memory.create ~words:256 in
  let a = Alloc.create m ~base:40 ~words:152 in
  ignore (Alloc.alloc a 4);
  let words = encode m [| a |] in
  (* [mem_words; n_runs; runs; n_arenas; base; words; records_top ...] *)
  let cursor = arena_section words + 3 in
  check_int "cursor word" (Alloc.capture_state a).Alloc.s_records_top
    words.(cursor);
  words.(cursor) <- 257;
  match restore words with
  | Ok _ -> Alcotest.fail "record cursor past the memory accepted"
  | Error _ -> ()

(* Encoded size = header (memory size, run count) + 2 words and the
   values per run + the arena section (its count, then 7 words and the
   class heads per arena).  The image has a zero word inside a block, a
   run across a chunk boundary and a run ending at the last word. *)
let test_snapshot_size_law () =
  let cw = Memory.chunk_words in
  let words = 2 * cw in
  let m = Memory.create ~words in
  let a = Alloc.create m ~base:(cw + 64) ~words:512 in
  let p = Alloc.alloc a 6 in
  List.iteri (fun i v -> Memory.set m (p + i) v) [ 1; 2; 0; 4; 5; 6 ];
  for addr = cw - 3 to cw + 2 do
    Memory.set m addr addr
  done;
  Memory.set m (words - 1) 9;
  let enc = encode m [| a |] in
  let flat = Array.init words (fun i -> if i = 0 then 0 else Memory.get m i) in
  let runs, n_runs = runs_of flat in
  check "encoding is the flat image's runs" true
    (Array.sub enc 0 (arena_section enc)
    = Array.of_list (words :: n_runs :: runs));
  let cells = Array.fold_left (fun n v -> if v <> 0 then n + 1 else n) 0 flat in
  let classes = Array.length (Alloc.capture_state a).Alloc.s_free_lists in
  check_int "size law"
    (2 + ((2 * n_runs) + cells) + (1 + 7 + classes))
    (Array.length enc);
  check "chunk-crossing run is one run" true
    (enc.(2) = cw - 3 && enc.(3) = 6)

(* Hand-built encodings of a 64-word memory and no arenas: the valid one
   decodes, each malformed run list is rejected, and so is every cut of
   the valid one. *)
let test_snapshot_decode_rejects_bad_runs () =
  let valid = [| 64; 2; 5; 2; 7; 8; 10; 1; 9; 0 |] in
  check "valid runs decode" true (Result.is_ok (restore valid));
  List.iter
    (fun (what, words) ->
      match restore words with
      | Ok _ -> Alcotest.failf "%s accepted" what
      | Error _ -> ())
    [
      ("overlapping runs", [| 64; 2; 5; 3; 1; 2; 3; 7; 1; 9; 0 |]);
      ("unsorted runs", [| 64; 2; 10; 1; 9; 5; 1; 7; 0 |]);
      ("a zero-length run", [| 64; 1; 5; 0; 0 |]);
      ("a run at address 0", [| 64; 1; 0; 1; 3; 0 |]);
      ("a run past the memory", [| 64; 1; 63; 2; 1; 2; 0 |]);
      ("a run longer than its words", [| 64; 1; 5; 3; 1; 2 |]);
    ];
  for cut = 0 to Array.length valid - 1 do
    if Result.is_ok (restore (Array.sub valid 0 cut)) then
      Alcotest.failf "cut to %d words accepted" cut
  done

(* Property: image/write/restore is the identity on the memory
   image and on the allocator's observable state, for arbitrary
   write/alloc/free interleavings. *)
let prop_snapshot_roundtrip =
  QCheck.Test.make ~name:"snapshot encode/decode/restore roundtrip"
    ~count:200
    QCheck.(
      list_of_size (Gen.int_range 1 60)
        (pair (int_range 0 2) (pair (int_range 1 62) small_signed_int)))
    (fun ops ->
      let m = Memory.create ~words:256 in
      let a = Alloc.create m ~base:64 ~words:128 in
      let live = ref [] in
      List.iter
        (fun (op, (x, v)) ->
          match op with
          | 0 -> Memory.set m x v
          | 1 ->
              let p = Alloc.alloc a (1 + (x mod 8)) in
              Memory.set m p v;
              live := p :: !live
          | _ -> (
              match !live with
              | p :: rest ->
                  Alloc.free a p;
                  live := rest
              | [] -> ()))
        ops;
      match restore (encode m [| a |]) with
      | Error _ -> false
      | Ok (m', arenas') ->
          let a' = arenas'.(0) in
          Memory.size m' = Memory.size m
          && Alloc.live_blocks a' = Alloc.live_blocks a
          && Alloc.live_words a' = Alloc.live_words a
          && List.for_all
               (fun addr -> Memory.get m addr = Memory.get m' addr)
               (List.init (Memory.size m - 1) (fun i -> i + 1)))

(* Property: the codec round-trips run-length images with zero words
   inside written stretches, runs across a chunk boundary, a run ending
   at the last word, and the empty image; the encoding is exactly the
   flat image's maximal runs. *)
let prop_snapshot_runs_roundtrip =
  let cw = Memory.chunk_words in
  let stretch =
    QCheck.Gen.(
      int_range 1 40 >>= fun len ->
      frequency
        [
          (2, int_range 1 (paged_words - len));
          (2, map (fun k -> (k * cw) - (len / 2)) (int_range 1 3));
          (1, return (paged_words - len));
        ]
      >>= fun start ->
      list_repeat len (frequency [ (1, return 0); (4, int_range (-99) 99) ])
      >>= fun values -> return (start, values))
  in
  QCheck.Test.make ~name:"snapshot run-length roundtrip" ~count:300
    (QCheck.make
       ~print:(fun l ->
         String.concat "; "
           (List.map (fun (a, vs) -> Printf.sprintf "%d+%d" a (List.length vs)) l))
       QCheck.Gen.(list_size (int_range 0 6) stretch))
    (fun stretches ->
      let m = Memory.create ~words:paged_words in
      let flat = Array.make paged_words 0 in
      List.iter
        (fun (start, values) ->
          List.iteri
            (fun i v ->
              Memory.set m (start + i) v;
              flat.(start + i) <- v)
            values)
        stretches;
      let runs, n_runs = runs_of flat in
      let enc = encode m [||] in
      match restore enc with
      | Error e -> QCheck.Test.fail_reportf "restore: %s" e
      | Ok (m', _) ->
          enc = Array.of_list ((paged_words :: n_runs :: runs) @ [ 0 ])
          && live_cells enc
             = Array.fold_left (fun n v -> if v <> 0 then n + 1 else n) 0 flat
          && List.for_all
               (fun a -> Memory.get m' a = flat.(a))
               (List.init (paged_words - 1) (fun i -> i + 1)))

(* ------------------------------------------------------------------ *)
(* Conflict granules: records on word granules, arrays on aligned lines *)

module Orec = Captured_stm.Orec

let words_of p size = List.init size (fun k -> p + k)
let granule_line orecs a = a / Orec.line_words_at orecs a

(* The three granule invariants over the live blocks, each
   [(addr, size, indices at allocation)]. *)
let granules_ok orecs live =
  let payload_owner a =
    List.find_opt (fun (p, size, _) -> p <= a && a < p + size) live
  in
  List.for_all
    (fun (p, size, indices) ->
      let same_records =
        List.map (Orec.index_of orecs) (words_of p size) = indices
      in
      if size <= Alloc.record_words then
        same_records
        && List.for_all
             (fun a -> granule_line orecs a <> granule_line orecs (a + 1))
             (words_of p (size - 1))
      else
        let first = p land lnot (Orec.line_words - 1) in
        let last =
          (p + size + Orec.line_words - 1) land lnot (Orec.line_words - 1)
        in
        same_records
        && List.for_all
             (fun a -> Orec.line_words_at orecs a = Orec.line_words)
             (words_of p size)
        && List.for_all
             (fun a ->
               match payload_owner a with
               | None -> true
               | Some (q, _, _) -> q = p)
             (words_of first (last - first)))
    live

(* Property: over random mixed-size allocations and frees on two arenas,
   cross-arena frees included, every live word keeps the record it had
   when its block was handed out, records sit on word granules and no
   array line holds another block's payload. *)
let prop_granules_stable =
  QCheck.Test.make ~name:"granules fixed per block, lines never shared"
    ~count:200
    QCheck.(
      list_of_size (Gen.int_range 1 80)
        (pair (int_range 0 3) (int_range 1 70)))
    (fun ops ->
      let m = Memory.create ~words:8192 in
      let orecs = Orec.over m ~bits:12 in
      let arenas =
        [|
          Alloc.create m ~base:1 ~words:4000;
          Alloc.create m ~base:4100 ~words:4000;
        |]
      in
      let live = ref [] in
      List.for_all
        (fun (op, n) ->
          let arena = arenas.(op land 1) in
          (if op < 2 then
             match Alloc.alloc arena n with
             | p ->
                 let size = Alloc.block_size arena p in
                 let indices =
                   List.map (Orec.index_of orecs) (words_of p size)
                 in
                 live := (p, size, indices) :: !live
             | exception Alloc.Out_of_memory -> ()
           else
             match List.nth_opt !live (n mod max 1 (List.length !live)) with
             | Some ((p, _, _) as b) ->
                 Alloc.free arena p;
                 live := List.filter (fun b' -> b' != b) !live
             | None -> ());
          granules_ok orecs !live)
        ops)

(* The record cursor climbs from the first page boundary above [base]
   and the array cursor descends from [limit]: they fill the arena until
   they would share a page, then raise [Out_of_memory], whichever kind
   asks, and never overlap. *)
let test_cursors_meet () =
  List.iter
    (fun sizes ->
      let m = Memory.create ~words:1024 in
      let a = Alloc.create m ~base:100 ~words:700 in
      let blocks = ref [] in
      let rec fill = function
        | [] -> fill sizes
        | n :: rest -> (
            match Alloc.alloc a n with
            | p ->
                blocks := (p, Alloc.block_size a p) :: !blocks;
                fill rest
            | exception Alloc.Out_of_memory -> ())
      in
      fill sizes;
      let blocks = !blocks in
      check "filled some" true (List.length blocks > 10);
      let page p = p lsr Memory.page_log2 in
      let pages kind =
        List.concat_map
          (fun (p, size) ->
            if (size <= Alloc.record_words) = kind then
              [ page (p - 1); page (p + size - 1) ]
            else [])
          blocks
      in
      let records = pages true and arrays = pages false in
      check "records inside the arena" true
        (List.for_all (fun pg -> pg >= page 128) records);
      check "no page shared by the cursors" true
        (List.for_all (fun r -> List.for_all (fun x -> r < x) arrays) records);
      let records_end =
        List.fold_left
          (fun acc (p, size) ->
            if size <= Alloc.record_words then max acc (p + size) else acc)
          128 blocks
      and arrays_low =
        List.fold_left
          (fun acc (p, size) ->
            if size > Alloc.record_words then min acc (p - 1) else acc)
          800 blocks
      in
      check "the cursors met" true
        (arrays_low - records_end < (2 * Memory.page_words) + 65);
      let orecs = Orec.over m ~bits:10 in
      check "records on word pages, arrays on line pages" true
        (List.for_all
           (fun (p, size) ->
             Orec.line_words_at orecs p
             = if size <= Alloc.record_words then 1 else Orec.line_words)
           blocks);
      List.iter
        (fun (p, s) ->
          List.iter
            (fun (q, t) ->
              if p <> q && p - 1 < q + t && q - 1 < p + s then
                Alcotest.failf "blocks %d+%d and %d+%d overlap" p s q t)
            blocks)
        blocks)
    [ [ 3; 20 ]; [ 8 ]; [ 40 ]; [ 1; 9; 5; 64 ] ]

(* A checkpoint round trip rebuilds the page table: every live word of
   the restored memory maps to the record it had. *)
let test_snapshot_keeps_granules () =
  let m = Memory.create ~words:4096 in
  let arenas =
    [|
      Alloc.create m ~base:1 ~words:2000; Alloc.create m ~base:2001 ~words:2000;
    |]
  in
  let blocks =
    List.concat_map
      (fun n ->
        Array.to_list
          (Array.map
             (fun a ->
               let p = Alloc.alloc a n in
               Memory.set m p n;
               (p, Alloc.block_size a p))
             arenas))
      [ 1; 5; 8; 9; 30; 2; 7; 100; 3; 4; 6; 16 ]
  in
  let words = List.concat_map (fun (p, s) -> words_of p s) blocks in
  let orecs = Orec.over m ~bits:12 in
  let m', _ = restored (encode m arenas) in
  let orecs' = Orec.over m' ~bits:12 in
  List.iter
    (fun a ->
      check_int (Printf.sprintf "record of word %d" a) (Orec.index_of orecs a)
        (Orec.index_of orecs' a))
    words

let qsuite name tests = (name, List.map Qc.to_alcotest tests)

let () =
  Alcotest.run "tmem"
    [
      ( "memory",
        [
          Alcotest.test_case "get/set" `Quick test_memory_get_set;
          Alcotest.test_case "null rejected" `Quick test_memory_null_rejected;
          Alcotest.test_case "blit" `Quick test_memory_blit;
          Alcotest.test_case "resident words" `Quick test_memory_resident_words;
        ] );
      qsuite "memory-props"
        [ prop_unsafe_agrees_with_checked; prop_paging_invisible ];
      ( "tstack",
        [
          Alcotest.test_case "grows down" `Quick test_stack_grows_down;
          Alcotest.test_case "save/restore" `Quick test_stack_save_restore;
          Alcotest.test_case "overflow" `Quick test_stack_overflow;
          Alcotest.test_case "live range" `Quick test_stack_live_range;
          Alcotest.test_case "live range boundaries" `Quick
            test_stack_live_range_boundaries;
          Alcotest.test_case "bad restore" `Quick test_stack_bad_restore;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "basic" `Quick test_alloc_basic;
          Alcotest.test_case "zeroed" `Quick test_alloc_zeroed;
          Alcotest.test_case "reuse same class" `Quick
            test_alloc_reuse_same_class;
          Alcotest.test_case "distinct blocks" `Quick test_alloc_distinct_blocks;
          Alcotest.test_case "double free" `Quick test_alloc_double_free;
          Alcotest.test_case "oom" `Quick test_alloc_oom;
          Alcotest.test_case "large class" `Quick test_alloc_large_class;
          Alcotest.test_case "foreign free" `Quick test_alloc_foreign_free;
        ] );
      qsuite "alloc-props"
        [
          prop_no_overlap;
          prop_free_then_alloc_live_count;
          prop_cross_arena_free_replay;
        ];
      ( "snapshot",
        [
          Alcotest.test_case "roundtrip" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "decode rejects truncation" `Quick
            test_snapshot_decode_truncated;
          Alcotest.test_case "decode rejects a cursor off the memory" `Quick
            test_snapshot_decode_rejects_bad_cursor;
          Alcotest.test_case "decode rejects malformed runs" `Quick
            test_snapshot_decode_rejects_bad_runs;
          Alcotest.test_case "size law" `Quick test_snapshot_size_law;
        ] );
      qsuite "snapshot-props"
        [ prop_snapshot_roundtrip; prop_snapshot_runs_roundtrip ];
      ( "granules",
        [
          Alcotest.test_case "cursors meet" `Quick test_cursors_meet;
          Alcotest.test_case "snapshot keeps granules" `Quick
            test_snapshot_keeps_granules;
        ] );
      qsuite "granule-props" [ prop_granules_stable ];
    ]
