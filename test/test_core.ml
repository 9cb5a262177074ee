open Captured_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let log_add log ~lo ~hi = ignore (Alloc_log.add log ~lo ~hi : Alloc_log.added)
let log_remove log ~lo ~hi = ignore (Alloc_log.remove log ~lo ~hi : bool)

(* ------------------------------------------------------------------ *)
(* Range_tree *)

let test_tree_basic () =
  let t = Range_tree.create () in
  Range_tree.insert t ~lo:100 ~hi:110;
  Range_tree.insert t ~lo:200 ~hi:220;
  check "hit" true (Range_tree.contains t ~lo:105 ~hi:106);
  check "whole block" true (Range_tree.contains t ~lo:100 ~hi:110);
  check "miss below" false (Range_tree.contains t ~lo:90 ~hi:91);
  check "miss between" false (Range_tree.contains t ~lo:150 ~hi:151);
  check "straddle" false (Range_tree.contains t ~lo:105 ~hi:115);
  check_int "size" 2 (Range_tree.size t)

let test_tree_paper_figure5 () =
  (* The paper's example: ranges (1000,1100), (1150,1200), (1980,2000). *)
  let t = Range_tree.create () in
  Range_tree.insert t ~lo:1000 ~hi:1100;
  Range_tree.insert t ~lo:1150 ~hi:1200;
  Range_tree.insert t ~lo:1980 ~hi:2000;
  check "in first" true (Range_tree.contains t ~lo:1050 ~hi:1051);
  check "in second" true (Range_tree.contains t ~lo:1150 ~hi:1200);
  check "in third" true (Range_tree.contains t ~lo:1999 ~hi:2000);
  check "gap" false (Range_tree.contains t ~lo:1120 ~hi:1121);
  check "above" false (Range_tree.contains t ~lo:2500 ~hi:2501)

let test_tree_remove () =
  let t = Range_tree.create () in
  Range_tree.insert t ~lo:10 ~hi:20;
  Range_tree.insert t ~lo:30 ~hi:40;
  check "removed" true (Range_tree.remove t ~lo:10);
  check "gone" false (Range_tree.contains t ~lo:15 ~hi:16);
  check "other kept" true (Range_tree.contains t ~lo:35 ~hi:36);
  check "re-remove fails" false (Range_tree.remove t ~lo:10);
  check_int "size" 1 (Range_tree.size t)

let test_tree_overlap_rejected () =
  let t = Range_tree.create () in
  Range_tree.insert t ~lo:10 ~hi:20;
  Alcotest.check_raises "overlap"
    (Invalid_argument "Range_tree.insert: overlapping range") (fun () ->
      Range_tree.insert t ~lo:15 ~hi:25);
  Alcotest.check_raises "contained"
    (Invalid_argument "Range_tree.insert: overlapping range") (fun () ->
      Range_tree.insert t ~lo:5 ~hi:12)

let test_tree_clear () =
  let t = Range_tree.create () in
  for i = 0 to 9 do
    Range_tree.insert t ~lo:(i * 100) ~hi:((i * 100) + 10)
  done;
  Range_tree.clear t;
  check_int "empty" 0 (Range_tree.size t);
  check "no hit" false (Range_tree.contains t ~lo:0 ~hi:1)

let test_tree_balanced_depth () =
  let t = Range_tree.create () in
  for i = 1 to 1024 do
    Range_tree.insert t ~lo:(i * 10) ~hi:((i * 10) + 5)
  done;
  check "depth logarithmic" true (Range_tree.depth t <= 15)

let test_tree_iter_sorted () =
  let t = Range_tree.create () in
  List.iter
    (fun (lo, hi) -> Range_tree.insert t ~lo ~hi)
    [ (50, 60); (10, 20); (30, 40) ];
  let acc = ref [] in
  Range_tree.iter t (fun ~lo ~hi -> acc := (lo, hi) :: !acc);
  Alcotest.(check (list (pair int int)))
    "sorted" [ (10, 20); (30, 40); (50, 60) ] (List.rev !acc)

(* ------------------------------------------------------------------ *)
(* Range_array *)

let test_array_basic () =
  let a = Range_array.create () in
  check "kept" true (Range_array.insert a ~lo:10 ~hi:20);
  check "hit" true (Range_array.contains a ~lo:12 ~hi:13);
  check "miss" false (Range_array.contains a ~lo:25 ~hi:26)

let test_array_capacity_drop () =
  let a = Range_array.create ~capacity:2 () in
  check "1" true (Range_array.insert a ~lo:10 ~hi:20);
  check "2" true (Range_array.insert a ~lo:30 ~hi:40);
  check "3 dropped" false (Range_array.insert a ~lo:50 ~hi:60);
  check_int "dropped count" 1 (Range_array.dropped a);
  (* Conservative: the dropped range answers false. *)
  check "dropped not found" false (Range_array.contains a ~lo:55 ~hi:56);
  check "kept found" true (Range_array.contains a ~lo:30 ~hi:31)

let test_array_remove_frees_slot () =
  let a = Range_array.create ~capacity:2 () in
  ignore (Range_array.insert a ~lo:10 ~hi:20 : bool);
  ignore (Range_array.insert a ~lo:30 ~hi:40 : bool);
  check "removed" true (Range_array.remove a ~lo:10);
  check "slot reusable" true (Range_array.insert a ~lo:50 ~hi:60);
  check "new found" true (Range_array.contains a ~lo:50 ~hi:60)

let test_array_default_capacity_is_cacheline () =
  check_int "4 ranges" 4 (Range_array.capacity (Range_array.create ()))

(* ------------------------------------------------------------------ *)
(* Range_filter *)

let test_filter_basic () =
  let f = Range_filter.create () in
  Range_filter.insert f ~lo:100 ~hi:120;
  check "hit word" true (Range_filter.contains f ~lo:110 ~hi:111);
  check "hit range" true (Range_filter.contains f ~lo:100 ~hi:120);
  check "miss" false (Range_filter.contains f ~lo:200 ~hi:201)

let test_filter_remove () =
  let f = Range_filter.create () in
  Range_filter.insert f ~lo:100 ~hi:120;
  Range_filter.remove f ~lo:100 ~hi:120;
  check "gone" false (Range_filter.contains f ~lo:110 ~hi:111)

let test_filter_clear_o1 () =
  let f = Range_filter.create () in
  Range_filter.insert f ~lo:100 ~hi:120;
  Range_filter.clear f;
  check "cleared" false (Range_filter.contains f ~lo:100 ~hi:101);
  (* Reusable after clear. *)
  Range_filter.insert f ~lo:100 ~hi:101;
  check "reinserted" true (Range_filter.contains f ~lo:100 ~hi:101)

let test_filter_collision_conservative () =
  (* Tiny table forces collisions; answers must stay conservative: every
     [true] really corresponds to a live logged word. *)
  let f = Range_filter.create ~buckets:16 () in
  let live = Hashtbl.create 64 in
  let g = Captured_util.Prng.create 99 in
  for _ = 1 to 50 do
    let lo = 1 + Captured_util.Prng.int g 1000 in
    let hi = lo + 1 + Captured_util.Prng.int g 8 in
    Range_filter.insert f ~lo ~hi;
    for a = lo to hi - 1 do
      Hashtbl.replace live a ()
    done
  done;
  for addr = 1 to 1100 do
    if Range_filter.contains f ~lo:addr ~hi:(addr + 1) then
      check "no false positive" true (Hashtbl.mem live addr)
  done

(* ------------------------------------------------------------------ *)
(* The filtering backend's structure under one-word probes: each a
   [contains] then an [insert] of [addr, addr+1), the pattern of a
   write-after-write check (the group keeps that name; the STM's own
   check is its exact write set).  A hit must name a word really
   inserted since the last [clear]; an insert may evict a colliding
   word, which then misses again. *)

let probe_note f addr =
  let hit = Range_filter.contains f ~lo:addr ~hi:(addr + 1) in
  Range_filter.insert f ~lo:addr ~hi:(addr + 1);
  hit

let test_probe_basic () =
  let w = Range_filter.create ~buckets:1024 () in
  check "first note" false (probe_note w 100);
  check "second note hits" true (probe_note w 100);
  check "other address" false (probe_note w 101);
  Range_filter.clear w;
  check "cleared" false (probe_note w 100)

let test_probe_no_false_hits () =
  let w = Range_filter.create ~buckets:16 () in
  let noted = Hashtbl.create 64 in
  let g = Captured_util.Prng.create 5 in
  for _ = 1 to 500 do
    let a = 1 + Captured_util.Prng.int g 1000 in
    if probe_note w a then
      check "hit only if really noted" true (Hashtbl.mem noted a);
    Hashtbl.replace noted a ()
  done

let test_probe_note_dedup () =
  let w = Range_filter.create ~buckets:1024 () in
  check "fresh addr misses" false (probe_note w 42);
  check "other addr misses" false (probe_note w 43);
  check "other addr then hits" true (probe_note w 43);
  check "first still hits" true (probe_note w 42)

(* A colliding insert evicts: the filter stays conservative for range
   queries only because it never answers a hit it cannot vouch for.
   Hunt for a colliding pair in a minimum-size table rather than
   assuming the hash. *)
let test_probe_collision_evicts () =
  let w = Range_filter.create ~buckets:16 () in
  let rec find b =
    if b > 1_000_000 then Alcotest.fail "no collision found"
    else begin
      Range_filter.clear w;
      ignore (probe_note w 0 : bool);
      ignore (probe_note w b : bool);
      if not (probe_note w 0) then b else find (b + 1)
    end
  in
  let b = find 1 in
  Range_filter.clear w;
  ignore (probe_note w 0 : bool);
  check "collider is a fresh miss" false (probe_note w b);
  check "evicted addr misses again" false (probe_note w 0);
  check "eviction went the other way too" false (probe_note w b)

let test_probe_clear () =
  let w = Range_filter.create ~buckets:1024 () in
  ignore (probe_note w 7 : bool);
  Range_filter.clear w;
  check "miss after clear" false (probe_note w 7);
  check "hit after re-note" true (probe_note w 7)

(* ------------------------------------------------------------------ *)
(* Cross-backend property: conservative w.r.t. a reference model        *)

let ops_gen =
  (* A script of add/remove over a small universe of disjoint blocks. *)
  QCheck.(
    list_of_size (Gen.int_range 1 40)
      (pair bool (int_range 0 19) (* add?, block index *)))

let block_of i =
  let lo = 1 + (i * 50) in
  (lo, lo + 10 + (i mod 7))

let prop_conservative backend =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "%s conservative vs reference"
         (Alloc_log.backend_name backend))
    ~count:300 ops_gen
    (fun script ->
      let log = Alloc_log.create ~filter_buckets:64 backend in
      let model = Hashtbl.create 32 in
      List.iter
        (fun (add, i) ->
          let lo, hi = block_of i in
          if add then begin
            if not (Hashtbl.mem model i) then begin
              log_add log ~lo ~hi;
              Hashtbl.replace model i ()
            end
          end
          else if Hashtbl.mem model i then begin
            log_remove log ~lo ~hi;
            Hashtbl.remove model i
          end)
        script;
      (* Check all probe points: claimed-captured implies model-captured. *)
      let ok = ref true in
      for i = 0 to 19 do
        let lo, hi = block_of i in
        for a = lo - 2 to hi + 1 do
          if Alloc_log.contains log ~lo:a ~hi:(a + 1) then
            if not (Hashtbl.mem model i && a >= lo && a < hi) then ok := false
        done
      done;
      !ok)

let prop_tree_exact =
  QCheck.Test.make ~name:"tree backend is exact" ~count:300 ops_gen
    (fun script ->
      let log = Alloc_log.create Alloc_log.Tree in
      let model = Hashtbl.create 32 in
      List.iter
        (fun (add, i) ->
          let lo, hi = block_of i in
          if add then begin
            if not (Hashtbl.mem model i) then begin
              log_add log ~lo ~hi;
              Hashtbl.replace model i ()
            end
          end
          else if Hashtbl.mem model i then begin
            log_remove log ~lo ~hi;
            Hashtbl.remove model i
          end)
        script;
      let ok = ref true in
      for i = 0 to 19 do
        let lo, hi = block_of i in
        for a = lo - 2 to hi + 1 do
          let claimed = Alloc_log.contains log ~lo:a ~hi:(a + 1) in
          let truth = Hashtbl.mem model i && a >= lo && a < hi in
          if claimed <> truth then ok := false
        done
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Alloc_log cost hooks (simulator model inputs) *)

let test_alloc_log_costs () =
  let tree = Alloc_log.create Alloc_log.Tree in
  let c0 = Alloc_log.search_cost tree in
  for k = 1 to 64 do
    log_add tree ~lo:(k * 100) ~hi:((k * 100) + 8)
  done;
  check "tree probe grows with depth" true (Alloc_log.search_cost tree > c0);
  let arr = Alloc_log.create Alloc_log.Array in
  let a0 = Alloc_log.search_cost arr in
  log_add arr ~lo:10 ~hi:20;
  log_add arr ~lo:30 ~hi:40;
  check "array probe grows with occupancy" true (Alloc_log.search_cost arr > a0);
  let filt = Alloc_log.create Alloc_log.Filter in
  let f0 = Alloc_log.search_cost filt in
  log_add filt ~lo:10 ~hi:20;
  check_int "filter probe constant" f0 (Alloc_log.search_cost filt);
  check "filter add scales with block size" true
    (Alloc_log.add_cost filt ~lo:0 ~hi:64 > Alloc_log.add_cost filt ~lo:0 ~hi:4)

let test_alloc_log_clear_resets_size () =
  List.iter
    (fun backend ->
      let log = Alloc_log.create backend in
      log_add log ~lo:10 ~hi:20;
      log_add log ~lo:30 ~hi:40;
      check_int "size" 2 (Alloc_log.size log);
      Alloc_log.clear log;
      check_int "cleared" 0 (Alloc_log.size log);
      check "no stale hit" false (Alloc_log.contains log ~lo:12 ~hi:13))
    Alloc_log.all_backends

(* ------------------------------------------------------------------ *)
(* Capture_cache: the hierarchical fast path's front line *)

let test_cache_empty_rejects () =
  let c = Capture_cache.create () in
  check "empty rejects" true (Capture_cache.check c ~lo:10 ~hi:11 = Capture_cache.Reject);
  check "no bounds" true (Capture_cache.bounds c = None);
  check "no mru" true (Capture_cache.mru c = None)

let test_cache_bounds_and_mru () =
  let c = Capture_cache.create () in
  Capture_cache.note_add c ~lo:100 ~hi:120;
  check "below rejects" true
    (Capture_cache.check c ~lo:90 ~hi:91 = Capture_cache.Reject);
  check "above rejects" true
    (Capture_cache.check c ~lo:130 ~hi:131 = Capture_cache.Reject);
  check "straddling lo rejects" true
    (Capture_cache.check c ~lo:99 ~hi:101 = Capture_cache.Reject);
  check "fresh block is MRU" true
    (Capture_cache.check c ~lo:105 ~hi:106 = Capture_cache.Hit);
  Capture_cache.note_add c ~lo:300 ~hi:310;
  check "new block is MRU" true
    (Capture_cache.check c ~lo:300 ~hi:301 = Capture_cache.Hit);
  (* Old block now inside the envelope but off the MRU entry. *)
  check "old block unknown" true
    (Capture_cache.check c ~lo:105 ~hi:106 = Capture_cache.Unknown);
  check "gap unknown" true
    (Capture_cache.check c ~lo:200 ~hi:201 = Capture_cache.Unknown);
  Capture_cache.note_hit c ~lo:100 ~hi:120;
  check "refreshed MRU" true
    (Capture_cache.check c ~lo:119 ~hi:120 = Capture_cache.Hit)

let test_cache_remove_invalidates_mru () =
  let c = Capture_cache.create () in
  Capture_cache.note_add c ~lo:100 ~hi:120;
  Capture_cache.note_remove c ~lo:100 ~hi:120;
  (* The envelope over-approximates (not shrunk), so the verdict must be
     Unknown, never Hit. *)
  check "mru gone" true
    (Capture_cache.check c ~lo:105 ~hi:106 = Capture_cache.Unknown);
  Capture_cache.note_add c ~lo:200 ~hi:210;
  Capture_cache.note_remove c ~lo:400 ~hi:410;
  check "disjoint remove keeps mru" true
    (Capture_cache.check c ~lo:205 ~hi:206 = Capture_cache.Hit);
  Capture_cache.clear c;
  check "clear rejects" true
    (Capture_cache.check c ~lo:205 ~hi:206 = Capture_cache.Reject)

(* ------------------------------------------------------------------ *)
(* Alloc_log fast path: saturation reporting, promotion, remove sync *)

(* Fill an array log to its capacity, [Range_array.default_capacity] = 4
   blocks at [10 + 20k, 20 + 20k), each add answering [Kept]. *)
let fill_array log =
  for k = 0 to Range_array.default_capacity - 1 do
    check "kept" true
      (Alloc_log.add log ~lo:(10 + (20 * k)) ~hi:(20 + (20 * k))
      = Alloc_log.Kept)
  done

let test_array_overflow_reported () =
  let log = Alloc_log.create Alloc_log.Array in
  fill_array log;
  check "overflow reported" true
    (Alloc_log.add log ~lo:500 ~hi:510 = Alloc_log.Dropped);
  (* A dropped block is not tracked: size must reflect the backend. *)
  check_int "size excludes drops" 4 (Alloc_log.size log);
  check "dropped unfound" false (Alloc_log.contains log ~lo:505 ~hi:506)

let test_array_promotes_to_tree () =
  let log = Alloc_log.create ~fastpath:true Alloc_log.Array in
  fill_array log;
  check "promoted" true
    (Alloc_log.add log ~lo:500 ~hi:510 = Alloc_log.Promoted);
  check "declared backend stays Array" true
    (Alloc_log.backend log = Alloc_log.Array);
  check "promoted flag" true (Alloc_log.promoted log);
  check_int "one promotion" 1 (Alloc_log.promotions log);
  (* No precision lost: all five blocks answer, including the overflowing
     one and the pre-promotion ones. *)
  check "pre-promotion found" true (Alloc_log.contains log ~lo:12 ~hi:13);
  check "pre-promotion found" true (Alloc_log.contains log ~lo:75 ~hi:76);
  check "overflow found" true (Alloc_log.contains log ~lo:505 ~hi:506);
  check_int "size counts all" 5 (Alloc_log.size log);
  (* Clear reverts to the cheap array backend. *)
  Alloc_log.clear log;
  fill_array log;
  check "fresh array also promotes" true
    (Alloc_log.add log ~lo:500 ~hi:510 = Alloc_log.Promoted)

let test_remove_miss_keeps_count () =
  List.iter
    (fun backend ->
      let log = Alloc_log.create backend in
      log_add log ~lo:10 ~hi:20;
      log_add log ~lo:30 ~hi:40;
      (match backend with
      | Alloc_log.Tree | Alloc_log.Array ->
          (* Removing a never-logged block must not decrement. *)
          check "remove miss reported" false
            (Alloc_log.remove log ~lo:500 ~hi:510);
          check_int "count intact" 2 (Alloc_log.size log)
      | Alloc_log.Filter -> ());
      check "remove hit reported" true (Alloc_log.remove log ~lo:10 ~hi:20);
      check_int "count decremented" 1 (Alloc_log.size log))
    Alloc_log.all_backends

let test_probe_classification () =
  let log = Alloc_log.create ~fastpath:true Alloc_log.Tree in
  check "empty: summary reject" true
    (Alloc_log.probe log ~lo:100 ~hi:101 = Alloc_log.Summary_reject);
  log_add log ~lo:100 ~hi:120;
  log_add log ~lo:300 ~hi:320;
  check "outside envelope: summary reject" true
    (Alloc_log.probe log ~lo:50 ~hi:51 = Alloc_log.Summary_reject);
  check "fresh block: MRU hit" true
    (Alloc_log.probe log ~lo:305 ~hi:306 = Alloc_log.Mru_hit);
  check "older block: backend hit" true
    (Alloc_log.probe log ~lo:105 ~hi:106 = Alloc_log.Backend_hit);
  check "now cached: MRU hit on another word of the block" true
    (Alloc_log.probe log ~lo:110 ~hi:111 = Alloc_log.Mru_hit);
  check "inside envelope gap: backend miss" true
    (Alloc_log.probe log ~lo:200 ~hi:201 = Alloc_log.Backend_miss);
  (* Without fastpath every probe is a backend probe. *)
  let plain = Alloc_log.create Alloc_log.Tree in
  check "no fastpath: backend miss" true
    (Alloc_log.probe plain ~lo:100 ~hi:101 = Alloc_log.Backend_miss)

(* The MRU tier is skipped when it cannot pay for itself: the filter's
   backend probe is already O(1), and a log of at most one block is fully
   answered by the envelope summary.  Probes then route straight from the
   summary to the backend (same boolean answer, different tier), and the
   tier re-arms once the log grows past one block. *)
let test_mru_tier_gating () =
  (* Filter: never active, even with many blocks. *)
  let f = Alloc_log.create ~fastpath:true Alloc_log.Filter in
  log_add f ~lo:100 ~hi:120;
  log_add f ~lo:300 ~hi:320;
  check "filter: tier off" false (Alloc_log.mru_tier_active f);
  check "filter: repeat probe routes to backend" true
    (Alloc_log.probe f ~lo:305 ~hi:306 = Alloc_log.Backend_hit
    && Alloc_log.probe f ~lo:305 ~hi:306 = Alloc_log.Backend_hit);
  (* Tree: off at <=1 block, re-arms at 2, off again after removal. *)
  let t = Alloc_log.create ~fastpath:true Alloc_log.Tree in
  check "tree empty: tier off" false (Alloc_log.mru_tier_active t);
  log_add t ~lo:100 ~hi:120;
  check "tree 1 block: tier off" false (Alloc_log.mru_tier_active t);
  (* One block, nothing removed: the envelope is exact, so the summary
     itself answers "captured" (reported as an MRU hit, priced as a
     summary check). *)
  check "tree 1 exact block: summary-priced hit" true
    (Alloc_log.probe t ~lo:105 ~hi:106 = Alloc_log.Mru_hit);
  log_add t ~lo:300 ~hi:320;
  check "tree 2 blocks: tier armed" true (Alloc_log.mru_tier_active t);
  check "tree 2 blocks: fresh block MRU hit" true
    (Alloc_log.probe t ~lo:305 ~hi:306 = Alloc_log.Mru_hit);
  check "remove hit" true (Alloc_log.remove t ~lo:300 ~hi:320);
  check "tree back to 1 block: tier off" false (Alloc_log.mru_tier_active t);
  (* After a removal the envelope is no longer exact, so the surviving
     block's probes route to the backend (the stale MRU was invalidated). *)
  check "tree 1 inexact block: backend hit" true
    (Alloc_log.probe t ~lo:105 ~hi:106 = Alloc_log.Backend_hit);
  (* No fastpath: never active. *)
  let plain = Alloc_log.create Alloc_log.Tree in
  check "plain: tier off" false (Alloc_log.mru_tier_active plain)

(* Fast-path conservatism: for every backend, the hierarchical log never
   claims captured wrongly, and it agrees exactly with a precise reference
   on Tree (and on Array, thanks to promotion). *)
let prop_fastpath_conservative backend =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "%s+fastpath conservative vs reference"
         (Alloc_log.backend_name backend))
    ~count:300 ops_gen
    (fun script ->
      let log =
        Alloc_log.create ~filter_buckets:64 ~fastpath:true backend
      in
      let model = Hashtbl.create 32 in
      List.iter
        (fun (add, i) ->
          let lo, hi = block_of i in
          if add then begin
            if not (Hashtbl.mem model i) then begin
              log_add log ~lo ~hi;
              Hashtbl.replace model i ()
            end
          end
          else if Hashtbl.mem model i then begin
            log_remove log ~lo ~hi;
            Hashtbl.remove model i
          end)
        script;
      let exact = backend <> Alloc_log.Filter in
      let ok = ref true in
      for i = 0 to 19 do
        let lo, hi = block_of i in
        for a = lo - 2 to hi + 1 do
          let claimed = Alloc_log.contains log ~lo:a ~hi:(a + 1) in
          let truth = Hashtbl.mem model i && a >= lo && a < hi in
          if claimed && not truth then ok := false;
          (* Tree is precise; Array promotes instead of dropping, so with
             fastpath it is precise too. *)
          if exact && claimed <> truth then ok := false
        done
      done;
      !ok)

(* Probing mutates the MRU entry; interleaving probes with add/remove must
   never turn that cached state into a false positive. *)
let prop_fastpath_probe_interleaved backend =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "%s+fastpath probes interleaved with updates"
         (Alloc_log.backend_name backend))
    ~count:300
    QCheck.(
      list_of_size (Gen.int_range 1 60)
        (pair (int_range 0 2) (int_range 0 19) (* op, block index *)))
    (fun script ->
      let log =
        Alloc_log.create ~filter_buckets:64 ~fastpath:true backend
      in
      let model = Hashtbl.create 32 in
      let ok = ref true in
      List.iter
        (fun (op, i) ->
          let lo, hi = block_of i in
          match op with
          | 0 ->
              if not (Hashtbl.mem model i) then begin
                log_add log ~lo ~hi;
                Hashtbl.replace model i ()
              end
          | 1 ->
              if Hashtbl.mem model i then begin
                log_remove log ~lo ~hi;
                Hashtbl.remove model i
              end
          | _ ->
              for a = lo - 1 to hi do
                if
                  Alloc_log.contains log ~lo:a ~hi:(a + 1)
                  && not (Hashtbl.mem model i && a >= lo && a < hi)
                then ok := false
              done)
        script;
      !ok)

(* Satellite: Range_tree round-trips under random add/remove/contains,
   directly against a model (not through Alloc_log). *)
let prop_tree_roundtrip =
  QCheck.Test.make ~name:"Range_tree random add/remove/contains round-trip"
    ~count:300
    QCheck.(
      list_of_size (Gen.int_range 1 80) (pair bool (int_range 0 39)))
    (fun script ->
      let t = Range_tree.create () in
      let model = Hashtbl.create 64 in
      let ok = ref true in
      List.iter
        (fun (add, i) ->
          let lo, hi = block_of i in
          if add then begin
            if not (Hashtbl.mem model i) then begin
              Range_tree.insert t ~lo ~hi;
              Hashtbl.replace model i ()
            end
          end
          else begin
            let removed = Range_tree.remove t ~lo in
            if removed <> Hashtbl.mem model i then ok := false;
            Hashtbl.remove model i
          end;
          if Range_tree.size t <> Hashtbl.length model then ok := false)
        script;
      for i = 0 to 39 do
        let lo, hi = block_of i in
        let expect = Hashtbl.mem model i in
        if Range_tree.contains t ~lo ~hi:(lo + 1) <> expect then ok := false;
        if Range_tree.contains t ~lo:(hi - 1) ~hi <> expect then ok := false;
        if Range_tree.contains t ~lo:(hi + 1) ~hi:(hi + 2) then ok := false;
        match Range_tree.find t ~lo ~hi:(lo + 1) with
        | Some (flo, fhi) -> if not (expect && flo = lo && fhi = hi) then ok := false
        | None -> if expect then ok := false
      done;
      !ok)

(* Satellite: direct conservatism of the lossy backends — a [true] from
   Range_array/Range_filter always corresponds to a live tracked block,
   whatever got dropped or collided. *)
let prop_array_conservative_direct =
  QCheck.Test.make ~name:"Range_array direct conservatism" ~count:300 ops_gen
    (fun script ->
      let a = Range_array.create ~capacity:3 () in
      let tracked = Hashtbl.create 16 in
      (* No duplicate live blocks: an allocator never hands out the same
         address twice without an intervening free, and the array stores
         one slot per insert. *)
      List.iter
        (fun (add, i) ->
          let lo, hi = block_of i in
          if add then begin
            if not (Hashtbl.mem tracked i) then
              if Range_array.insert a ~lo ~hi then Hashtbl.replace tracked i ()
          end
          else if Range_array.remove a ~lo then Hashtbl.remove tracked i)
        script;
      let ok = ref true in
      for i = 0 to 19 do
        let lo, hi = block_of i in
        for addr = lo - 1 to hi do
          if Range_array.contains a ~lo:addr ~hi:(addr + 1) then
            if not (Hashtbl.mem tracked i && addr >= lo && addr < hi) then
              ok := false
        done
      done;
      !ok)

let prop_filter_conservative_direct =
  QCheck.Test.make ~name:"Range_filter direct conservatism" ~count:300 ops_gen
    (fun script ->
      let f = Range_filter.create ~buckets:16 () in
      let live = Hashtbl.create 16 in
      List.iter
        (fun (add, i) ->
          let lo, hi = block_of i in
          if add then begin
            if not (Hashtbl.mem live i) then begin
              Range_filter.insert f ~lo ~hi;
              Hashtbl.replace live i ()
            end
          end
          else if Hashtbl.mem live i then begin
            Range_filter.remove f ~lo ~hi;
            Hashtbl.remove live i
          end)
        script;
      let ok = ref true in
      for i = 0 to 19 do
        let lo, hi = block_of i in
        for addr = lo - 1 to hi do
          if Range_filter.contains f ~lo:addr ~hi:(addr + 1) then
            if not (Hashtbl.mem live i && addr >= lo && addr < hi) then
              ok := false
        done
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Site *)

let test_site_declare_meta () =
  let s = Site.declare ~manual:false ~write:true "test.site.alpha" in
  let m = Site.meta s in
  check "name" true (m.Site.name = "test.site.alpha");
  check "write" true m.Site.write;
  check "manual" false m.Site.manual;
  check "not init-only" false m.Site.init_only

(* An init-only site reads words no one writes after publication; a
   write site cannot be one. *)
let test_site_init_only () =
  let s = Site.declare ~init_only:true ~write:false "test.site.init" in
  check "init-only" true (Site.meta s).Site.init_only;
  check "is_init_only" true (Site.is_init_only s);
  check "anonymous read is not" false (Site.is_init_only Site.anonymous_read);
  Alcotest.check_raises "write site"
    (Invalid_argument "Site.declare: init-only write site test.site.init_w")
    (fun () ->
      ignore (Site.declare ~init_only:true ~write:true "test.site.init_w"))

let test_site_duplicate_rejected () =
  ignore (Site.declare ~write:false "test.site.dup");
  Alcotest.check_raises "dup"
    (Invalid_argument "Site.declare: duplicate site test.site.dup") (fun () ->
      ignore (Site.declare ~write:false "test.site.dup"))

let test_site_verdicts () =
  let s = Site.declare ~manual:false ~write:false "test.site.verdict" in
  check "initially shared" false (Site.is_captured_static s);
  Site.set_captured s;
  check "captured" true (Site.is_captured_static s);
  Site.reset_verdicts ();
  check "reset" false (Site.is_captured_static s)

let test_site_by_name () =
  let s = Site.declare ~write:false "test.site.byname" in
  Site.set_captured_by_name "test.site.byname";
  check "set by name" true (Site.is_captured_static s);
  Site.set_captured_by_name "test.site.nonexistent";
  Site.reset_verdicts ()

let qsuite name tests = (name, List.map Qc.to_alcotest tests)

let () =
  Alcotest.run "core"
    [
      ( "range_tree",
        [
          Alcotest.test_case "basic" `Quick test_tree_basic;
          Alcotest.test_case "paper fig5" `Quick test_tree_paper_figure5;
          Alcotest.test_case "remove" `Quick test_tree_remove;
          Alcotest.test_case "overlap rejected" `Quick
            test_tree_overlap_rejected;
          Alcotest.test_case "clear" `Quick test_tree_clear;
          Alcotest.test_case "balanced depth" `Quick test_tree_balanced_depth;
          Alcotest.test_case "iter sorted" `Quick test_tree_iter_sorted;
        ] );
      ( "range_array",
        [
          Alcotest.test_case "basic" `Quick test_array_basic;
          Alcotest.test_case "capacity drop" `Quick test_array_capacity_drop;
          Alcotest.test_case "remove frees slot" `Quick
            test_array_remove_frees_slot;
          Alcotest.test_case "default capacity" `Quick
            test_array_default_capacity_is_cacheline;
        ] );
      ( "waw",
        [
          Alcotest.test_case "basic" `Quick test_probe_basic;
          Alcotest.test_case "no false hits" `Quick test_probe_no_false_hits;
          Alcotest.test_case "note dedup" `Quick test_probe_note_dedup;
          Alcotest.test_case "collision evicts" `Quick
            test_probe_collision_evicts;
          Alcotest.test_case "clear" `Quick test_probe_clear;
        ] );
      ( "range_filter",
        [
          Alcotest.test_case "basic" `Quick test_filter_basic;
          Alcotest.test_case "remove" `Quick test_filter_remove;
          Alcotest.test_case "clear O(1)" `Quick test_filter_clear_o1;
          Alcotest.test_case "collision conservative" `Quick
            test_filter_collision_conservative;
        ] );
      ( "capture_cache",
        [
          Alcotest.test_case "empty rejects" `Quick test_cache_empty_rejects;
          Alcotest.test_case "bounds + MRU" `Quick test_cache_bounds_and_mru;
          Alcotest.test_case "remove invalidates MRU" `Quick
            test_cache_remove_invalidates_mru;
        ] );
      ( "alloc_log-fastpath",
        [
          Alcotest.test_case "overflow reported" `Quick
            test_array_overflow_reported;
          Alcotest.test_case "array promotes to tree" `Quick
            test_array_promotes_to_tree;
          Alcotest.test_case "remove miss keeps count" `Quick
            test_remove_miss_keeps_count;
          Alcotest.test_case "probe classification" `Quick
            test_probe_classification;
          Alcotest.test_case "mru tier gating" `Quick test_mru_tier_gating;
        ] );
      qsuite "alloc_log-props"
        [
          prop_conservative Alloc_log.Tree;
          prop_conservative Alloc_log.Array;
          prop_conservative Alloc_log.Filter;
          prop_tree_exact;
          prop_fastpath_conservative Alloc_log.Tree;
          prop_fastpath_conservative Alloc_log.Array;
          prop_fastpath_conservative Alloc_log.Filter;
          prop_fastpath_probe_interleaved Alloc_log.Tree;
          prop_fastpath_probe_interleaved Alloc_log.Array;
          prop_fastpath_probe_interleaved Alloc_log.Filter;
        ];
      qsuite "range-props"
        [
          prop_tree_roundtrip;
          prop_array_conservative_direct;
          prop_filter_conservative_direct;
        ];
      ( "alloc_log-costs",
        [
          Alcotest.test_case "cost hooks" `Quick test_alloc_log_costs;
          Alcotest.test_case "clear" `Quick test_alloc_log_clear_resets_size;
        ] );
      ( "site",
        [
          Alcotest.test_case "declare/meta" `Quick test_site_declare_meta;
          Alcotest.test_case "duplicate" `Quick test_site_duplicate_rejected;
          Alcotest.test_case "init-only" `Quick test_site_init_only;
          Alcotest.test_case "verdicts" `Quick test_site_verdicts;
          Alcotest.test_case "by name" `Quick test_site_by_name;
        ] );
    ]
