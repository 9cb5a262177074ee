open Captured_tstruct
module Config = Captured_stm.Config
module Engine = Captured_stm.Engine
module Txn = Captured_stm.Txn
module Alloc = Captured_tmem.Alloc
module Stats = Captured_stm.Stats

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let with_acc f =
  let w = Engine.create ~nthreads:1 Config.baseline in
  let th = Engine.setup_thread w in
  f (Access.raw th) th w

(* ------------------------------------------------------------------ *)
(* Tlist *)

let test_list_insert_find () =
  with_acc (fun acc _ _ ->
      let l = Tlist.create acc in
      check "ins 5" true (Tlist.insert acc l ~key:5 ~value:50);
      check "ins 3" true (Tlist.insert acc l ~key:3 ~value:30);
      check "ins 8" true (Tlist.insert acc l ~key:8 ~value:80);
      check "dup" false (Tlist.insert acc l ~key:5 ~value:99);
      check_int "size" 3 (Tlist.size acc l);
      Alcotest.(check (option int)) "find 3" (Some 30) (Tlist.find acc l 3);
      Alcotest.(check (option int)) "find 9" None (Tlist.find acc l 9))

let test_list_sorted_order () =
  with_acc (fun acc _ _ ->
      let l = Tlist.create acc in
      List.iter
        (fun k -> ignore (Tlist.insert acc l ~key:k ~value:(k * 10) : bool))
        [ 4; 1; 3; 2; 5 ];
      let keys = Tlist.fold acc l ~init:[] ~f:(fun a k _ -> k :: a) in
      Alcotest.(check (list int)) "ascending" [ 1; 2; 3; 4; 5 ] (List.rev keys))

let test_list_remove () =
  with_acc (fun acc _ w ->
      let l = Tlist.create acc in
      let arena = Engine.arena_of w 0 in
      ignore (Tlist.insert acc l ~key:1 ~value:1 : bool);
      ignore (Tlist.insert acc l ~key:2 ~value:2 : bool);
      let live = Alloc.live_blocks arena in
      check "remove head" true (Tlist.remove acc l 1);
      check "gone" false (Tlist.contains acc l 1);
      check "remove absent" false (Tlist.remove acc l 7);
      check_int "node freed" (live - 1) (Alloc.live_blocks arena);
      check_int "size" 1 (Tlist.size acc l))

let test_list_iterator () =
  with_acc (fun acc th _ ->
      let l = Tlist.create acc in
      List.iter
        (fun k -> ignore (Tlist.insert acc l ~key:k ~value:(-k) : bool))
        [ 2; 1; 3 ];
      (* Figure 1(a): iterator on the (transaction) stack. *)
      let collected =
        Txn.atomic th (fun tx ->
            let acc = Access.of_tx tx in
            let it = Txn.alloca tx Tlist.iter_words in
            Tlist.iter_reset acc ~iter:it l;
            let rec go out =
              if Tlist.iter_has_next acc ~iter:it then
                let k, v = Tlist.iter_next acc ~iter:it in
                go ((k, v) :: out)
              else List.rev out
            in
            go [])
      in
      Alcotest.(check (list (pair int int)))
        "in order" [ (1, -1); (2, -2); (3, -3) ] collected)

let test_list_destroy_frees_all () =
  with_acc (fun acc _ w ->
      let arena = Engine.arena_of w 0 in
      let before = Alloc.live_blocks arena in
      let l = Tlist.create acc in
      for k = 1 to 10 do
        ignore (Tlist.insert acc l ~key:k ~value:k : bool)
      done;
      Tlist.destroy acc l;
      check_int "all freed" before (Alloc.live_blocks arena))

let prop_list_vs_model =
  QCheck.Test.make ~name:"list matches reference map" ~count:200
    QCheck.(list (pair (int_range 0 30) bool))
    (fun script ->
      with_acc (fun acc _ _ ->
          let l = Tlist.create acc in
          let model = Hashtbl.create 16 in
          List.iter
            (fun (k, add) ->
              if add then begin
                let expected = not (Hashtbl.mem model k) in
                let got = Tlist.insert acc l ~key:k ~value:(k * 7) in
                if got then Hashtbl.replace model k (k * 7);
                assert (got = expected)
              end
              else begin
                let expected = Hashtbl.mem model k in
                let got = Tlist.remove acc l k in
                Hashtbl.remove model k;
                assert (got = expected)
              end)
            script;
          Tlist.size acc l = Hashtbl.length model
          && List.for_all
               (fun k -> Tlist.find acc l k = Hashtbl.find_opt model k)
               (List.init 31 Fun.id)))

(* ------------------------------------------------------------------ *)
(* Tqueue *)

let test_queue_fifo () =
  with_acc (fun acc _ _ ->
      let q = Tqueue.create acc ~capacity:4 () in
      check "empty" true (Tqueue.is_empty acc q);
      List.iter (Tqueue.push acc q) [ 1; 2; 3 ];
      check_int "len" 3 (Tqueue.length acc q);
      Alcotest.(check (option int)) "pop1" (Some 1) (Tqueue.pop acc q);
      Alcotest.(check (option int)) "pop2" (Some 2) (Tqueue.pop acc q);
      Tqueue.push acc q 4;
      Alcotest.(check (option int)) "pop3" (Some 3) (Tqueue.pop acc q);
      Alcotest.(check (option int)) "pop4" (Some 4) (Tqueue.pop acc q);
      Alcotest.(check (option int)) "pop empty" None (Tqueue.pop acc q))

let test_queue_grows () =
  with_acc (fun acc _ _ ->
      let q = Tqueue.create acc ~capacity:2 () in
      for k = 1 to 50 do
        Tqueue.push acc q k
      done;
      check_int "len" 50 (Tqueue.length acc q);
      let rec drain k =
        match Tqueue.pop acc q with
        | Some v ->
            check_int "order preserved" k v;
            drain (k + 1)
        | None -> k - 1
      in
      check_int "drained all" 50 (drain 1))

let prop_queue_vs_model =
  QCheck.Test.make ~name:"queue matches reference" ~count:200
    QCheck.(list (option (int_range 0 100)))
    (fun script ->
      with_acc (fun acc _ _ ->
          let q = Tqueue.create acc ~capacity:2 () in
          let model = Queue.create () in
          List.for_all
            (fun op ->
              match op with
              | Some v ->
                  Tqueue.push acc q v;
                  Queue.push v model;
                  true
              | None -> (
                  match (Tqueue.pop acc q, Queue.take_opt model) with
                  | Some a, Some b -> a = b
                  | None, None -> true
                  | _ -> false))
            script
          && Tqueue.length acc q = Queue.length model))

(* ------------------------------------------------------------------ *)
(* Theap *)

let int_cmp : Theap.cmp = fun _ a b -> compare a b

let test_heap_max_order () =
  with_acc (fun acc _ _ ->
      let h = Theap.create acc ~capacity:2 () in
      List.iter (Theap.insert acc int_cmp h) [ 5; 1; 9; 3; 7; 2; 8 ];
      check_int "size" 7 (Theap.size acc h);
      let rec drain out =
        match Theap.pop acc int_cmp h with
        | Some v -> drain (v :: out)
        | None -> out
      in
      Alcotest.(check (list int))
        "ascending after reverse" [ 1; 2; 3; 5; 7; 8; 9 ] (drain []))

let test_heap_indirect_cmp () =
  (* yada-style: entries are addresses, ordered by a dereferenced field. *)
  with_acc (fun acc _ _ ->
      let mk v =
        let p = acc.Access.alloc 1 in
        acc.Access.write ~site:Captured_core.Site.anonymous_write p v;
        p
      in
      let cmp : Theap.cmp =
       fun acc a b ->
        compare
          (acc.Access.read ~site:Captured_core.Site.anonymous_read a)
          (acc.Access.read ~site:Captured_core.Site.anonymous_read b)
      in
      let h = Theap.create acc () in
      let p3 = mk 3 and p9 = mk 9 and p5 = mk 5 in
      List.iter (Theap.insert acc cmp h) [ p3; p9; p5 ];
      Alcotest.(check (option int)) "max by deref" (Some p9)
        (Theap.pop acc cmp h))

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap sorts any input" ~count:200
    QCheck.(list small_nat)
    (fun xs ->
      with_acc (fun acc _ _ ->
          let h = Theap.create acc ~capacity:2 () in
          List.iter (Theap.insert acc int_cmp h) xs;
          let rec drain out =
            match Theap.pop acc int_cmp h with
            | Some v -> drain (v :: out)
            | None -> out
          in
          drain [] = List.sort compare xs))

(* ------------------------------------------------------------------ *)
(* Tvector *)

let test_vector_basic () =
  with_acc (fun acc _ _ ->
      let v = Tvector.create acc ~capacity:1 () in
      for k = 0 to 20 do
        Tvector.push_back acc v (k * k)
      done;
      check_int "size" 21 (Tvector.size acc v);
      check_int "at 7" 49 (Tvector.at acc v 7);
      Tvector.set acc v 7 0;
      check_int "set" 0 (Tvector.at acc v 7);
      Tvector.clear acc v;
      check_int "cleared" 0 (Tvector.size acc v))

let test_vector_bounds () =
  with_acc (fun acc _ _ ->
      let v = Tvector.create acc () in
      Tvector.push_back acc v 1;
      Alcotest.check_raises "oob" (Invalid_argument "Tvector.at") (fun () ->
          ignore (Tvector.at acc v 1)))

(* ------------------------------------------------------------------ *)
(* Tmap *)

let test_map_insert_find_remove () =
  with_acc (fun acc _ _ ->
      let m = Tmap.create acc in
      check "ins" true (Tmap.insert acc m ~key:10 ~value:100);
      check "dup" false (Tmap.insert acc m ~key:10 ~value:999);
      Alcotest.(check (option int)) "find" (Some 100) (Tmap.find acc m 10);
      check "remove" true (Tmap.remove acc m 10);
      check "absent" false (Tmap.remove acc m 10);
      Alcotest.(check (option int)) "gone" None (Tmap.find acc m 10))

let test_map_update () =
  with_acc (fun acc _ _ ->
      let m = Tmap.create acc in
      check "fresh" true (Tmap.update acc m ~key:1 ~value:10);
      check "overwrite" false (Tmap.update acc m ~key:1 ~value:20);
      Alcotest.(check (option int)) "new value" (Some 20) (Tmap.find acc m 1);
      check_int "size stays 1" 1 (Tmap.size acc m))

let test_map_inorder () =
  with_acc (fun acc _ _ ->
      let m = Tmap.create acc in
      List.iter
        (fun k -> ignore (Tmap.insert acc m ~key:k ~value:k : bool))
        [ 5; 2; 8; 1; 9; 3 ];
      let keys = Tmap.fold acc m ~init:[] ~f:(fun a k _ -> k :: a) in
      Alcotest.(check (list int))
        "sorted" [ 1; 2; 3; 5; 8; 9 ] (List.rev keys))

let test_map_remove_frees () =
  with_acc (fun acc _ w ->
      let arena = Engine.arena_of w 0 in
      let before = Alloc.live_blocks arena in
      let m = Tmap.create acc in
      for k = 1 to 20 do
        ignore (Tmap.insert acc m ~key:k ~value:k : bool)
      done;
      for k = 1 to 20 do
        ignore (Tmap.remove acc m k : bool)
      done;
      Tmap.destroy acc m;
      check_int "no leak" before (Alloc.live_blocks arena))

let prop_map_vs_model =
  QCheck.Test.make ~name:"treap matches reference map" ~count:300
    QCheck.(list (pair (int_range 0 60) (int_range 0 2)))
    (fun script ->
      with_acc (fun acc _ _ ->
          let m = Tmap.create acc in
          let model = Hashtbl.create 16 in
          List.iter
            (fun (k, op) ->
              match op with
              | 0 ->
                  let fresh = Tmap.insert acc m ~key:k ~value:k in
                  if fresh then Hashtbl.replace model k k
              | 1 ->
                  ignore (Tmap.update acc m ~key:k ~value:(k + 1000) : bool);
                  Hashtbl.replace model k (k + 1000)
              | _ ->
                  ignore (Tmap.remove acc m k : bool);
                  Hashtbl.remove model k)
            script;
          Tmap.size acc m = Hashtbl.length model
          && List.for_all
               (fun k -> Tmap.find acc m k = Hashtbl.find_opt model k)
               (List.init 61 Fun.id)))

let prop_map_inorder_sorted =
  QCheck.Test.make ~name:"treap stays ordered" ~count:200
    QCheck.(list (int_range 0 1000))
    (fun keys ->
      with_acc (fun acc _ _ ->
          let m = Tmap.create acc in
          List.iter
            (fun k -> ignore (Tmap.insert acc m ~key:k ~value:k : bool))
            keys;
          let out = List.rev (Tmap.fold acc m ~init:[] ~f:(fun a k _ -> k :: a)) in
          out = List.sort_uniq compare keys))

(* ------------------------------------------------------------------ *)
(* One walk per lookup: an accessor over [Access.raw] that records every
   address read, so a test can tell whether an operation read an address
   twice. *)

let recording th =
  let raw = Access.raw th in
  let reads = ref [] in
  let note a = reads := a :: !reads in
  let acc =
    {
      raw with
      Access.read =
        (fun ~site a ->
          note a;
          raw.Access.read ~site a);
      read_for_write =
        (fun ~site a ->
          note a;
          raw.Access.read_for_write ~site a);
    }
  in
  (acc, reads)

(* Runs [op] with the read record cleared and fails naming [what] if it
   read any address twice. *)
let reads_once reads what op =
  reads := [];
  let r = op () in
  let addrs = List.sort compare !reads in
  let rec dup = function
    | a :: (b :: _ as rest) -> if a = b then Some a else dup rest
    | _ -> None
  in
  (match dup addrs with
  | Some a -> Alcotest.failf "%s read address %d twice" what a
  | None -> ());
  check (what ^ " read something") true (addrs <> []);
  r

let map_keys = [ 50; 20; 80; 10; 30; 70; 90; 25; 35; 65; 5; 95; 42 ]

let test_map_reads_once () =
  with_acc (fun _ th _ ->
      let acc, reads = recording th in
      let m = Tmap.create acc in
      List.iter
        (fun k ->
          check "insert fresh" true
            (reads_once reads (Printf.sprintf "insert %d" k) (fun () ->
                 Tmap.insert acc m ~key:k ~value:(k * 10))))
        map_keys;
      check "insert present" false
        (reads_once reads "insert present" (fun () ->
             Tmap.insert acc m ~key:30 ~value:0));
      check "update present" false
        (reads_once reads "update present" (fun () ->
             Tmap.update acc m ~key:30 ~value:300));
      List.iter
        (fun k ->
          let what = Printf.sprintf "find %d" k in
          Alcotest.(check (option int))
            what
            (if List.mem k map_keys then Some (k * 10) else None)
            (reads_once reads what (fun () -> Tmap.find acc m k)))
        [ 50; 25; 95; 42; 0; 43; 100 ];
      let makes = ref 0 in
      let make v () =
        incr makes;
        v
      in
      List.iter
        (fun k ->
          let what = Printf.sprintf "find_or_add hit %d" k in
          check_int what (k * 10)
            (reads_once reads what (fun () ->
                 Tmap.find_or_add acc m ~key:k ~make:(make (-1)))))
        [ 50; 5; 65; 95 ];
      check_int "make never runs on a hit" 0 !makes;
      List.iter
        (fun k ->
          let before = !makes in
          let what = Printf.sprintf "find_or_add miss %d" k in
          check_int what (k + 1)
            (reads_once reads what (fun () ->
                 Tmap.find_or_add acc m ~key:k ~make:(make (k + 1))));
          check_int (what ^ ": make ran once") (before + 1) !makes;
          Alcotest.(check (option int))
            (what ^ ": bound") (Some (k + 1)) (Tmap.find acc m k))
        [ 1; 99; 60; 33; 51 ];
      List.iter
        (fun (k, present) ->
          let what = Printf.sprintf "remove %d" k in
          check what present
            (reads_once reads what (fun () -> Tmap.remove acc m k));
          Alcotest.(check (option int)) (what ^ ": gone") None
            (Tmap.find acc m k))
        [ (20, true); (80, true); (21, false); (50, true); (5, true) ];
      Alcotest.(check (result unit string)) "treap invariants" (Ok ())
        (Tmap.check acc m))

(* Shape.  Priorities rank keys by trailing zero bits first, so the key
   set alone fixes the tree, and a range [s, 2s, ..., ns] is perfectly
   balanced: the key with the most trailing zeros is unique in any run
   of multiples of [s] and splits it.  Heights are [Tmap.shape]'s, the
   root at depth 1. *)
let ceil_log2_succ n =
  let rec go h = if 1 lsl h >= n + 1 then h else go (h + 1) in
  go 0

let build acc keys =
  let m = Tmap.create acc in
  List.iter (fun k -> ignore (Tmap.insert acc m ~key:k ~value:k : bool)) keys;
  m

let test_map_balanced_ranges () =
  with_acc (fun acc _ _ ->
      let edges =
        List.concat_map
          (fun k -> [ (1 lsl k) - 1; 1 lsl k; (1 lsl k) + 1 ])
          (List.init 7 (fun i -> i + 8))
      in
      let sizes = List.init 150 (fun i -> i + 1) @ edges @ [ 1 lsl 14 ] in
      List.iter
        (fun stride ->
          List.iter
            (fun n ->
              if stride = 1 || n <= 4096 then begin
                let m = build acc (List.init n (fun i -> stride * (i + 1))) in
                let height, _ = Tmap.shape acc m in
                check_int
                  (Printf.sprintf "%d keys, stride %d: height" n stride)
                  (ceil_log2_succ n) height;
                Tmap.destroy acc m
              end)
            sizes)
        [ 1; 2; 3; 12; 1024 ])

(* The two maps the benchmarks walk: vacation's resource ids 0..8191 and
   kv's prefill of 2^14 even keys.  A red-black tree built by the same
   inserts has average depth 12.00 and 13.00; the hashed treap these
   priorities replaced had 14.22 and 18.48. *)
let test_map_benchmark_depths () =
  with_acc (fun acc _ _ ->
      List.iter
        (fun (what, keys, height, average) ->
          let m = build acc keys in
          let h, total = Tmap.shape acc m in
          check_int (what ^ ": height") height h;
          Alcotest.(check (float 0.005))
            (what ^ ": average depth") average
            (float_of_int total /. float_of_int (List.length keys));
          Tmap.destroy acc m)
        [
          ("vacation ids", List.init 8192 Fun.id, 14, 12.00);
          ("kv prefill", List.init (1 lsl 14) (fun i -> 2 * i), 15, 13.00);
        ])

(* The worst case: a class holding one key gives one level, so the
   powers of two, one key per class, form a chain as long as the key
   count — 63 with [min_int], the 63-bit [2^62] — in any insertion
   order. *)
let test_map_powers_of_two () =
  with_acc (fun acc _ _ ->
      let powers = min_int :: List.init 62 (fun i -> 1 lsl i) in
      List.iter
        (fun (what, keys) ->
          let m = build acc keys in
          Alcotest.(check (pair int int))
            (what ^ ": a chain") (63, 63 * 64 / 2) (Tmap.shape acc m);
          Alcotest.(check (result unit string)) (what ^ ": invariants") (Ok ())
            (Tmap.check acc m);
          Tmap.destroy acc m)
        [ ("ascending", powers); ("descending", List.rev powers) ])

(* Node depths of the treap that ranks keys by the multiplicative hash
   alone (the priorities before trailing zeros came first): (height, sum
   of depths), built as the Cartesian tree of the sorted keys. *)
let hashed_treap_shape keys =
  let a = Array.of_list (List.sort_uniq compare keys) in
  let n = Array.length a in
  let prio k = (k * 0x2545F4914F6CDD1D) land max_int in
  let left = Array.make n (-1) and right = Array.make n (-1) in
  let stack = ref [] in
  Array.iteri
    (fun i k ->
      let rec pop last = function
        | j :: rest when prio a.(j) < prio k -> pop j rest
        | st -> (last, st)
      in
      let last, st = pop (-1) !stack in
      left.(i) <- last;
      (match st with j :: _ -> right.(j) <- i | [] -> ());
      stack := i :: st)
    a;
  let rec go i d (h, total) =
    if i < 0 then (h, total)
    else go right.(i) (d + 1) (go left.(i) (d + 1) (max h d, total + d))
  in
  go (List.fold_left (fun _ i -> i) (-1) !stack) 1 (0, 0)

(* Random keys: ranking by trailing zeros first keeps a hashed treap's
   shape.  Their average depths agree in expectation; the bound leaves
   room for small maps, where one shape can run 80 % deeper than the
   other (0.8 of the bound at worst over 500 000 random maps). *)
let prop_map_depth_vs_hashed =
  QCheck.Test.make ~name:"treap depth against the hash-only treap" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 300) (int_range 0 (1 lsl 20)))
    (fun keys ->
      with_acc (fun acc _ _ ->
          let m = build acc keys in
          let _, total = Tmap.shape acc m in
          let _, hashed = hashed_treap_shape keys in
          total <= (2 * hashed) + List.length (List.sort_uniq compare keys)))

let test_list_reads_once () =
  with_acc (fun _ th _ ->
      let acc, reads = recording th in
      let l = Tlist.create acc in
      List.iter
        (fun k ->
          check "insert fresh" true
            (reads_once reads (Printf.sprintf "insert %d" k) (fun () ->
                 Tlist.insert acc l ~key:k ~value:(k * 10))))
        [ 5; 1; 9; 3; 7 ];
      List.iter
        (fun k ->
          check "insert present" false
            (reads_once reads (Printf.sprintf "insert present %d" k)
               (fun () -> Tlist.insert acc l ~key:k ~value:0)))
        [ 1; 5; 9 ];
      List.iter
        (fun k ->
          let what = Printf.sprintf "find %d" k in
          Alcotest.(check (option int))
            what
            (if k mod 2 = 1 && k < 10 then Some (k * 10) else None)
            (reads_once reads what (fun () -> Tlist.find acc l k)))
        [ 1; 5; 9; 0; 4; 10 ];
      List.iter
        (fun (k, present) ->
          check
            (Printf.sprintf "remove %d" k)
            present
            (reads_once reads (Printf.sprintf "remove %d" k) (fun () ->
                 Tlist.remove acc l k)))
        [ (4, false); (1, true); (9, true); (10, false); (5, true) ])

module Int_map = Map.Make (Int)

(* Random insert / find_or_add / update / remove scripts against
   [Map.Make (Int)], with removes right after a [find] or a
   [find_or_add] of the same key, as the apps remove: every result
   agrees with the reference, [make] runs exactly on the misses, and
   the treap keeps search order and heap order on key-derived
   priorities. *)
let prop_map_find_or_add =
  QCheck.Test.make ~name:"treap find_or_add and invariants" ~count:300
    QCheck.(list (pair (int_range 0 5) (int_range 0 80)))
    (fun script ->
      with_acc (fun acc _ _ ->
          let m = Tmap.create acc in
          let final =
            List.fold_left
              (fun model (op, k) ->
                match op with
                | 0 ->
                    let fresh = Tmap.insert acc m ~key:k ~value:k in
                    if fresh = Int_map.mem k model then
                      QCheck.Test.fail_reportf "insert %d: %b" k fresh;
                    if fresh then Int_map.add k k model else model
                | 1 ->
                    let made = ref 0 in
                    let v =
                      Tmap.find_or_add acc m ~key:k ~make:(fun () ->
                          incr made;
                          k + 500)
                    in
                    let present = Int_map.find_opt k model in
                    let expected = Option.value present ~default:(k + 500) in
                    let misses = if present = None then 1 else 0 in
                    if v <> expected || !made <> misses then
                      QCheck.Test.fail_reportf "find_or_add %d: %d, made %d"
                        k v !made;
                    Int_map.add k v model
                | 2 ->
                    let fresh = Tmap.update acc m ~key:k ~value:(k + 1000) in
                    if fresh = Int_map.mem k model then
                      QCheck.Test.fail_reportf "update %d: %b" k fresh;
                    Int_map.add k (k + 1000) model
                | 3 ->
                    let removed = Tmap.remove acc m k in
                    if removed <> Int_map.mem k model then
                      QCheck.Test.fail_reportf "remove %d: %b" k removed;
                    Int_map.remove k model
                | 4 ->
                    let found = Tmap.find acc m k in
                    if found <> Int_map.find_opt k model then
                      QCheck.Test.fail_reportf "find %d" k;
                    if Tmap.remove acc m k <> Option.is_some found then
                      QCheck.Test.fail_reportf "remove after find %d" k;
                    Int_map.remove k model
                | _ ->
                    let v = Tmap.find_or_add acc m ~key:k ~make:(fun () -> k) in
                    if v <> Option.value (Int_map.find_opt k model) ~default:k
                    then QCheck.Test.fail_reportf "find_or_add %d: %d" k v;
                    if not (Tmap.remove acc m k) then
                      QCheck.Test.fail_reportf "remove after find_or_add %d" k;
                    Int_map.remove k model)
              Int_map.empty script
          in
          (match Tmap.check acc m with
          | Ok () -> ()
          | Error e -> QCheck.Test.fail_reportf "invariant: %s" e);
          List.rev (Tmap.fold acc m ~init:[] ~f:(fun a k v -> (k, v) :: a))
          = Int_map.bindings final))

(* ------------------------------------------------------------------ *)
(* Init-only contract: the barrier loads a word read at an init-only
   site with no validation, so no operation may store to such a word of
   a node linked before it began.  [init_words walk] is every address a
   full [walk] reads at an init-only site; [kept_init_words] runs [op]
   over an accessor that records every address written and names the
   first write to one of those words. *)

let init_words th walk =
  let raw = Access.raw th in
  let words = Hashtbl.create 64 in
  walk
    {
      raw with
      Access.read =
        (fun ~site a ->
          if Captured_core.Site.is_init_only site then
            Hashtbl.replace words a ();
          raw.Access.read ~site a);
    };
  words

let kept_init_words th ~walk what op =
  let fixed = init_words th walk in
  let raw = Access.raw th in
  let written = ref [] in
  let r =
    op
      {
        raw with
        Access.write =
          (fun ~site a v ->
            written := a :: !written;
            raw.Access.write ~site a v);
      }
  in
  match List.find_opt (Hashtbl.mem fixed) (List.rev !written) with
  | Some a -> Error (Printf.sprintf "%s stored to init-only word %d" what a)
  | None -> Ok r

(* Random scripts of treap insert, update, find_or_add and remove and
   list insert and remove on one map and one list: no operation stores
   to a key word of a node linked before it, nor to a list value. *)
let prop_init_only_contract =
  QCheck.Test.make ~name:"operations keep init-only words" ~count:300
    QCheck.(list (pair (int_range 0 5) (int_range 0 40)))
    (fun script ->
      with_acc (fun acc th _ ->
          let m = Tmap.create acc and l = Tlist.create acc in
          let walk_map a = ignore (Tmap.fold a m ~init:() ~f:(fun () _ _ -> ()))
          and walk_list a =
            ignore (Tlist.fold a l ~init:() ~f:(fun () _ _ -> ()))
          in
          List.for_all
            (fun (op, k) ->
              let walk, what, run =
                match op with
                | 0 ->
                    ( walk_map, "Tmap.insert",
                      fun a -> ignore (Tmap.insert a m ~key:k ~value:k : bool) )
                | 1 ->
                    ( walk_map, "Tmap.update",
                      fun a ->
                        ignore (Tmap.update a m ~key:k ~value:(k + 1) : bool) )
                | 2 ->
                    ( walk_map, "Tmap.find_or_add",
                      fun a ->
                        ignore
                          (Tmap.find_or_add a m ~key:k ~make:(fun () -> k)
                            : int) )
                | 3 ->
                    ( walk_map, "Tmap.remove",
                      fun a -> ignore (Tmap.remove a m k : bool) )
                | 4 ->
                    ( walk_list, "Tlist.insert",
                      fun a ->
                        ignore (Tlist.insert a l ~key:k ~value:k : bool) )
                | _ ->
                    ( walk_list, "Tlist.remove",
                      fun a -> ignore (Tlist.remove a l k : bool) )
              in
              let what = Printf.sprintf "%s %d" what k in
              match kept_init_words th ~walk what run with
              | Ok () -> true
              | Error e -> QCheck.Test.fail_reportf "%s" e)
            script))

(* The textbook BST removal the contract rules out: a node with two
   children takes its in-order successor's key and value, and the
   successor is unlinked instead.  Node layout as in tmap.ml: key,
   value, left, right; the header's first word is the root. *)
let copying_remove (acc : Access.t) h key =
  let site = Captured_core.Site.anonymous_read
  and wsite = Captured_core.Site.anonymous_write in
  let rec leftmost link n =
    let l = acc.read ~site (n + 2) in
    if l = 0 then (link, n) else leftmost (l + 2) l
  in
  let rec go link n =
    if n <> 0 then begin
      let k = acc.read ~site n in
      if key < k then go (n + 2) (acc.read ~site (n + 2))
      else if key > k then go (n + 3) (acc.read ~site (n + 3))
      else
        let l = acc.read ~site (n + 2) and r = acc.read ~site (n + 3) in
        if l = 0 || r = 0 then begin
          acc.write ~site:wsite link (if l = 0 then r else l);
          acc.free n
        end
        else begin
          let slink, s = leftmost (n + 3) r in
          acc.write ~site:wsite n (acc.read ~site s);
          acc.write ~site:wsite (n + 1) (acc.read ~site (s + 1));
          acc.write ~site:wsite slink (acc.read ~site (s + 3));
          acc.free s
        end
    end
  in
  go h (acc.read ~site h)

let test_copying_remove_breaks_contract () =
  with_acc (fun acc th _ ->
      let m = Tmap.create acc in
      for k = 1 to 15 do
        ignore (Tmap.insert acc m ~key:k ~value:k : bool)
      done;
      let walk a = ignore (Tmap.fold a m ~init:() ~f:(fun () _ _ -> ())) in
      (* 8 has the most trailing zeros: the root, with two children. *)
      (match
         kept_init_words th ~walk "copying remove 8" (fun a ->
             copying_remove a m 8)
       with
      | Ok () -> Alcotest.fail "a removal that copies a key passed"
      | Error _ -> ());
      check "Tmap.remove keeps them" true
        (Result.is_ok
           (kept_init_words th ~walk "Tmap.remove 4" (fun a ->
                ignore (Tmap.remove a m 4 : bool)))))

(* ------------------------------------------------------------------ *)
(* Thashtable *)

let test_hashtable_basic () =
  with_acc (fun acc _ _ ->
      let h = Thashtable.create acc ~buckets:8 () in
      check "ins" true (Thashtable.insert acc h ~key:42 ~value:1);
      check "dup" false (Thashtable.insert acc h ~key:42 ~value:2);
      Alcotest.(check (option int)) "find" (Some 1) (Thashtable.find acc h 42);
      check "remove" true (Thashtable.remove acc h 42);
      check_int "size" 0 (Thashtable.size acc h))

let prop_hashtable_vs_model =
  QCheck.Test.make ~name:"hashtable matches reference" ~count:200
    QCheck.(list (pair (int_range 0 200) bool))
    (fun script ->
      with_acc (fun acc _ _ ->
          let h = Thashtable.create acc ~buckets:4 () in
          let model = Hashtbl.create 16 in
          List.iter
            (fun (k, add) ->
              if add then begin
                if Thashtable.insert acc h ~key:k ~value:(k * 3) then
                  Hashtbl.replace model k (k * 3)
              end
              else begin
                ignore (Thashtable.remove acc h k : bool);
                Hashtbl.remove model k
              end)
            script;
          Thashtable.size acc h = Hashtbl.length model
          && Hashtbl.fold
               (fun k v ok -> ok && Thashtable.find acc h k = Some v)
               model true))

(* ------------------------------------------------------------------ *)
(* Transactional use: data structures under concurrent transactions     *)

let test_concurrent_map_inserts () =
  let w = Engine.create ~nthreads:8 Config.baseline in
  let setup = Access.of_arena (Engine.global_arena w) in
  let m = Tmap.create setup in
  let per_thread = 25 in
  let _ =
    Engine.run_sim w (fun th ->
        let tid = Txn.thread_id th in
        for k = 0 to per_thread - 1 do
          Txn.atomic th (fun tx ->
              let acc = Access.of_tx tx in
              ignore
                (Tmap.insert acc m ~key:((tid * 1000) + k) ~value:tid : bool))
        done)
  in
  let reader = Engine.setup_thread w in
  let acc = Access.raw reader in
  check_int "all inserted" (8 * per_thread) (Tmap.size acc m);
  let keys = Tmap.fold acc m ~init:[] ~f:(fun a k _ -> k :: a) in
  check "sorted" true (List.rev keys = List.sort compare keys)

let test_concurrent_queue () =
  let w =
    Engine.create ~nthreads:8
      (Config.runtime Captured_core.Alloc_log.Tree)
  in
  let setup = Access.of_arena (Engine.global_arena w) in
  let q = Tqueue.create setup ~capacity:4 () in
  let popped = Array.make 8 0 in
  let _ =
    Engine.run_sim w (fun th ->
        let tid = Txn.thread_id th in
        if tid < 4 then
          (* Producers. *)
          for k = 1 to 30 do
            Txn.atomic th (fun tx ->
                Tqueue.push (Access.of_tx tx) q ((tid * 100) + k))
          done
        else
          (* Consumers. *)
          let got = ref 0 in
          let spins = ref 0 in
          while !got < 30 && !spins < 100000 do
            incr spins;
            match Txn.atomic th (fun tx -> Tqueue.pop (Access.of_tx tx) q) with
            | Some _ -> incr got
            | None -> Txn.work th 50
          done;
          popped.(tid) <- !got)
  in
  check_int "consumers drained everything" 120
    (popped.(4) + popped.(5) + popped.(6) + popped.(7))

(* ------------------------------------------------------------------ *)
(* Read-for-write headers *)

let rfw_engines = [ "tree"; "tree+lazy" ]

let thread_under spelling =
  let w =
    Engine.create ~nthreads:1 (Result.get_ok (Config.of_string spelling))
  in
  Engine.setup_thread w

let queue_of xs acc =
  let q = Tqueue.create acc () in
  List.iter (Tqueue.push acc q) xs;
  q

let heap_of xs acc =
  let h = Theap.create acc () in
  List.iter (Theap.insert acc int_cmp h) xs;
  h

(* Each header update writes the word it read on every path, so it takes
   exactly one orec, at the read, on both engines.  [setup] builds the
   structure outside any transaction; [op] runs in one. *)
let test_rfw_one_acquisition () =
  let pop_q acc q = ignore (Tqueue.pop acc q : int option) in
  let pop_h acc h = ignore (Theap.pop acc int_cmp h : int option) in
  let cases =
    [
      ("queue pop", queue_of [ 1; 2 ], pop_q);
      ("empty queue pop", queue_of [], pop_q);
      ("heap pop", heap_of [ 3; 1 ], pop_h);
      ("empty heap pop", heap_of [], pop_h);
      ("heap insert", heap_of [ 3 ], fun acc h -> Theap.insert acc int_cmp h 5);
      ( "vector push_back",
        (fun acc -> Tvector.create acc ()),
        fun acc v -> Tvector.push_back acc v 9 );
    ]
  in
  List.iter
    (fun spelling ->
      List.iter
        (fun (name, setup, op) ->
          let th = thread_under spelling in
          let h = setup (Access.raw th) in
          let s = Txn.thread_stats th in
          let before = s.Stats.rfw_acquires in
          Txn.atomic th (fun tx -> op (Access.of_tx tx) h);
          check_int (spelling ^ " " ^ name) 1 (s.Stats.rfw_acquires - before))
        cases)
    rfw_engines

(* An empty pop writes its header word back unchanged: every header word
   (four for a queue, three for a heap) reads as before, and the queue
   works on. *)
let test_rfw_empty_pop_unchanged () =
  List.iter
    (fun spelling ->
      let th = thread_under spelling in
      let raw = Access.raw th in
      let header h words =
        List.init words (fun k ->
            raw.Access.read ~site:Captured_core.Site.anonymous_read (h + k))
      in
      (* Drained once, so its pop index has moved from the initial one. *)
      let q = queue_of [ 1 ] raw in
      ignore (Tqueue.pop raw q : int option);
      let heap = heap_of [] raw in
      let q_before = header q 4 and heap_before = header heap 3 in
      Txn.atomic th (fun tx ->
          let acc = Access.of_tx tx in
          Alcotest.(check (option int))
            (spelling ^ " queue empty") None (Tqueue.pop acc q);
          Alcotest.(check (option int))
            (spelling ^ " heap empty") None (Theap.pop acc int_cmp heap));
      Alcotest.(check (list int)) (spelling ^ " queue header") q_before
        (header q 4);
      Alcotest.(check (list int)) (spelling ^ " heap header") heap_before
        (header heap 3);
      Tqueue.push raw q 7;
      Alcotest.(check (option int))
        (spelling ^ " queue works on") (Some 7) (Tqueue.pop raw q))
    rfw_engines

let qsuite name tests = (name, List.map Qc.to_alcotest tests)

let () =
  Alcotest.run "tstruct"
    [
      ( "tlist",
        [
          Alcotest.test_case "insert/find" `Quick test_list_insert_find;
          Alcotest.test_case "sorted" `Quick test_list_sorted_order;
          Alcotest.test_case "remove" `Quick test_list_remove;
          Alcotest.test_case "iterator" `Quick test_list_iterator;
          Alcotest.test_case "destroy" `Quick test_list_destroy_frees_all;
          Alcotest.test_case "reads each address once" `Quick
            test_list_reads_once;
        ] );
      ( "tqueue",
        [
          Alcotest.test_case "fifo" `Quick test_queue_fifo;
          Alcotest.test_case "grows" `Quick test_queue_grows;
        ] );
      ( "theap",
        [
          Alcotest.test_case "max order" `Quick test_heap_max_order;
          Alcotest.test_case "indirect cmp" `Quick test_heap_indirect_cmp;
        ] );
      ( "tvector",
        [
          Alcotest.test_case "basic" `Quick test_vector_basic;
          Alcotest.test_case "bounds" `Quick test_vector_bounds;
        ] );
      ( "tmap",
        [
          Alcotest.test_case "insert/find/remove" `Quick
            test_map_insert_find_remove;
          Alcotest.test_case "update" `Quick test_map_update;
          Alcotest.test_case "inorder" `Quick test_map_inorder;
          Alcotest.test_case "remove frees" `Quick test_map_remove_frees;
          Alcotest.test_case "reads each address once" `Quick
            test_map_reads_once;
          Alcotest.test_case "ranges are balanced" `Quick
            test_map_balanced_ranges;
          Alcotest.test_case "benchmark maps' depths" `Quick
            test_map_benchmark_depths;
          Alcotest.test_case "powers of two chain" `Quick
            test_map_powers_of_two;
          Alcotest.test_case "copying removal breaks init-only keys" `Quick
            test_copying_remove_breaks_contract;
        ] );
      ( "thashtable",
        [ Alcotest.test_case "basic" `Quick test_hashtable_basic ] );
      qsuite "props"
        [
          prop_list_vs_model;
          prop_queue_vs_model;
          prop_heap_sorts;
          prop_map_vs_model;
          prop_map_inorder_sorted;
          prop_map_find_or_add;
          prop_map_depth_vs_hashed;
          prop_init_only_contract;
          prop_hashtable_vs_model;
        ];
      ( "read-for-write",
        [
          Alcotest.test_case "one acquisition per header update" `Quick
            test_rfw_one_acquisition;
          Alcotest.test_case "empty pop leaves contents unchanged" `Quick
            test_rfw_empty_pop_unchanged;
        ] );
      ( "concurrent",
        [
          Alcotest.test_case "map inserts" `Quick test_concurrent_map_inserts;
          Alcotest.test_case "queue prod/cons" `Quick test_concurrent_queue;
        ] );
    ]
