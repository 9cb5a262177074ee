open Captured_stm
module Sched = Captured_sim.Sched
module Memory = Captured_tmem.Memory
module Alloc = Captured_tmem.Alloc
module Sync = Captured_apps.Sync
module Access = Captured_tstruct.Access
module App = Captured_apps.App
module Alloc_log = Captured_core.Alloc_log
module Workloads = Captured_check.Workloads

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Orec encoding *)

let test_orec_encoding () =
  check "version word unlocked" false (Orec.is_locked 42);
  let w = Orec.locked_word ~owner:7 in
  check "locked" true (Orec.is_locked w);
  check_int "owner" 7 (Orec.owner_of w);
  (* Word 42 encodes version 21; the bumped word encodes version 22. *)
  check_int "bump" 44 (Orec.bumped 42);
  check_int "version of bumped" 22 (Orec.version_of (Orec.bumped 42))

let test_orec_lock_cycle () =
  let t = Orec.create ~bits:6 in
  let i = Orec.index_of t 1234 in
  let before = Orec.get t i in
  check "initially unlocked" false (Orec.is_locked before);
  check "cas wins" true (Orec.try_lock t i ~owner:3 ~expected:before);
  check "now locked" true (Orec.is_locked (Orec.get t i));
  check "second cas fails" false (Orec.try_lock t i ~owner:4 ~expected:before);
  Orec.unlock t i (Orec.bumped before);
  check "released with new version" true
    ((not (Orec.is_locked (Orec.get t i)))
    && Orec.version_of (Orec.get t i) = Orec.version_of before + 1)

let test_orec_clock () =
  let t = Orec.create ~bits:6 in
  check_int "starts at zero" 0 (Orec.clock t);
  check_int "first advance returns 1" 1 (Orec.advance_clock t);
  check_int "second advance returns 2" 2 (Orec.advance_clock t);
  check_int "clock reads newest" 2 (Orec.clock t);
  (* Stamped words are unlocked version words decoding to the stamp. *)
  let w = Orec.stamped ~ts:2 in
  check "stamped unlocked" false (Orec.is_locked w);
  check_int "stamped roundtrip" 2 (Orec.version_of w);
  (* Stamping is order-preserving: versions only grow with the clock. *)
  check "monotone" true (Orec.stamped ~ts:2 > Orec.stamped ~ts:1)

let test_orec_line_granularity () =
  let t = Orec.create ~bits:10 in
  (* Addresses within one 4-word line map to the same record. *)
  check_int "same line" (Orec.index_of t 100) (Orec.index_of t 103);
  check "across lines usually differ" true
    (Orec.index_of t 100 <> Orec.index_of t 104
    || Orec.index_of t 100 <> Orec.index_of t 108)

let test_orec_hash_no_power_of_two_aliasing () =
  (* The bring-up bug: strides of 2^18 (arena spacing) must not alias. *)
  let t = Orec.create ~bits:14 in
  let base = 8 in
  let collisions = ref 0 in
  for k = 1 to 16 do
    if Orec.index_of t (base + (k * (1 lsl 18))) = Orec.index_of t base then
      incr collisions
  done;
  check "no systematic aliasing at power-of-two strides" true (!collisions <= 1)

(* ------------------------------------------------------------------ *)
(* Table geometry, validation clocks, thread ids *)

let test_orec_create_validation () =
  Alcotest.check_raises "too few bits" (Invalid_argument "Orec.create: bits")
    (fun () -> ignore (Orec.create ~bits:3));
  check_int "2^bits records" 256
    (Orec.count (Orec.create ~bits:8))

(* At every table size the index is a record of the table, and the four
   words of a line map to one record. *)
let prop_index_in_table =
  let tables =
    List.map (fun bits -> Orec.create ~bits) [ 4; 10; 17 ]
  in
  QCheck.Test.make ~name:"index in range, line-mates share a record"
    ~count:2000 (QCheck.int_range 0 ((1 lsl 30) - 1)) (fun addr ->
      let line = addr land lnot 3 and ok t i = 0 <= i && i < Orec.count t in
      List.for_all
        (fun t ->
          let i = Orec.index_of t addr in
          ok t i && i = Orec.index_of t line && i = Orec.index_of t (line + 3))
        tables)

(* Version and lock words decode to what they encode, a version word is
   never a lock, and later clock stamps are larger words. *)
let prop_word_roundtrip =
  QCheck.Test.make ~name:"version and lock words roundtrip" ~count:1000
    QCheck.(pair (int_range 0 ((1 lsl 40) - 1)) (int_range 0 (Stats.max_tids - 1)))
    (fun (ts, owner) ->
      let v = Orec.stamped ~ts and l = Orec.locked_word ~owner in
      (not (Orec.is_locked v)) && Orec.version_of v = ts
      && Orec.version_of (Orec.bumped v) = ts + 1
      && Orec.stamped ~ts:(ts + 1) > v
      && Orec.is_locked l && Orec.owner_of l = owner)

let test_clock_of_config () =
  check "no +tv: Scan" true (Config.clock Config.baseline = Config.Scan);
  check "+tv: Global" true
    (Config.clock (Config.with_tvalidate Config.baseline) = Config.Global)

(* A tid must fit the conflict-pair key; the largest that does is
   accepted. *)
let test_tid_bound () =
  let w = Engine.create ~nthreads:1 Config.baseline in
  let mem = Engine.memory w in
  let thread tid =
    Txn.create_thread ~tid ~platform:Captured_sim.Platform.native
      ~memory:mem
      ~stack:(Captured_tmem.Tstack.create mem ~base:1 ~words:16)
      ~arena:(Engine.arena_of w 0) ~orecs:(Engine.orecs w)
      ~config:Config.baseline ~seed:1 ()
  in
  ignore (thread (Stats.max_tids - 1) : Txn.thread);
  List.iter
    (fun tid ->
      Alcotest.check_raises (Printf.sprintf "tid %d" tid)
        (Invalid_argument
           "Txn.create_thread: tid does not fit the conflict-pair key")
        (fun () -> ignore (thread tid : Txn.thread)))
    [ -1; Stats.max_tids ]

(* ------------------------------------------------------------------ *)
(* Int_map (read-set and redo-buffer index) *)

(* Random add / find / next-attempt sequences against a Hashtbl model.
   Keys come from a pool of 2-200 keys: small pools revisit keys (value
   replacement, repeat finds); large ones double the 64-slot table two or
   three times within an attempt.  Every table is filled up to its half-full
   growth point, so keys share home slots and probe past each other.
   Pools mix small, huge and negative keys.  About one add in twelve stores
   -1, the redo buffer's dropped-key mark, which [find] must report
   exactly as it reports an absent key. *)
let prop_read_map_model =
  QCheck.Test.make ~name:"read map vs Hashtbl model" ~count:300
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let module P = Captured_util.Prng in
      let g = P.create seed in
      let pool =
        Array.init
          (2 + P.int g 199)
          (fun k ->
            match P.int g 3 with
            | 0 -> k
            | 1 -> P.int g (1 lsl 40)
            | _ -> -1 - P.int g 1000)
      in
      let m = Int_map.create () in
      let model : (int, int) Hashtbl.t = Hashtbl.create 64 in
      let ok = ref true in
      let agrees k =
        Int_map.find m k
        = (match Hashtbl.find_opt model k with Some v -> v | None -> -1)
      in
      for _ = 1 to 1000 do
        let k = pool.(P.int g (Array.length pool)) in
        (match P.int g 200 with
        | 0 ->
            Int_map.next_attempt m;
            Hashtbl.reset model
        | n when n < 110 ->
            let v = if n < 10 then -1 else P.int g 1_000_000 in
            Int_map.add m k v;
            Hashtbl.replace model k v
        | _ -> if not (agrees k) then ok := false);
        if Int_map.length m <> Hashtbl.length model then ok := false
      done;
      Array.iter (fun k -> if not (agrees k) then ok := false) pool;
      !ok)

(* ------------------------------------------------------------------ *)
(* Engine *)

(* Words allocated by [f ()] on either heap. *)
let allocated_words f =
  let minor0, promoted0, major0 = Gc.counters () in
  ignore (Sys.opaque_identity (f ()));
  let minor1, promoted1, major1 = Gc.counters () in
  minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0)

(* A thread's transaction state is sized by what it touches, not by the
   orec table: no per-record map survives in [Txn.create_thread]. *)
let test_thread_size_independent_of_orecs () =
  let words bits =
    let w =
      Engine.create ~nthreads:1 { Config.baseline with Config.orec_bits = bits }
    in
    allocated_words (fun () -> Engine.setup_thread w)
  in
  Alcotest.(check (float 0.)) "same words at 2^10 and 2^20 orecs" (words 10)
    (words 20)

let test_engine_memory_layout_disjoint () =
  let w = Engine.create ~nthreads:4 Config.baseline in
  (* Allocations from different arenas and stacks never overlap. *)
  let blocks =
    List.concat_map
      (fun tid ->
        let arena = Engine.arena_of w tid in
        List.init 5 (fun k -> (Alloc.alloc arena (8 + k), 8 + k)))
      [ 0; 1; 2; 3 ]
  in
  let global = Alloc.alloc (Engine.global_arena w) 32 in
  let all = (global, 32) :: blocks in
  let overlap (a, sa) (b, sb) = a < b + sb && b < a + sa in
  List.iteri
    (fun i x ->
      List.iteri (fun j y -> if i <> j then check "disjoint" false (overlap x y)) all)
    all

let test_engine_thread_seeds_differ () =
  let w = Engine.create ~nthreads:2 Config.baseline in
  let draws = Array.make 2 0 in
  let _ =
    Engine.run_sim ~seed:5 w (fun th ->
        draws.(Txn.thread_id th) <-
          Captured_util.Prng.bits (Txn.thread_prng th))
  in
  check "per-thread streams differ" true (draws.(0) <> draws.(1))

let test_engine_seed_changes_run () =
  let run seed =
    let w = Engine.create ~nthreads:4 Config.baseline in
    let cell = Alloc.alloc (Engine.global_arena w) 1 in
    let r =
      Engine.run_sim ~seed w (fun th ->
          for _ = 1 to 50 do
            Txn.atomic th (fun tx -> Txn.write tx cell (Txn.read tx cell + 1))
          done)
    in
    r.Engine.makespan
  in
  check "different seeds, different schedules" true (run 1 <> run 2)

let test_engine_per_thread_stats () =
  let w = Engine.create ~nthreads:3 Config.baseline in
  let cell = Alloc.alloc (Engine.global_arena w) 1 in
  let r =
    Engine.run_sim w (fun th ->
        for _ = 1 to 10 + (10 * Txn.thread_id th) do
          Txn.atomic th (fun tx -> Txn.write tx cell 1)
        done)
  in
  check_int "t0 commits" 10 r.Engine.per_thread.(0).Stats.commits;
  check_int "t1 commits" 20 r.Engine.per_thread.(1).Stats.commits;
  check_int "t2 commits" 30 r.Engine.per_thread.(2).Stats.commits;
  check_int "merged" 60 r.Engine.stats.Stats.commits

(* ------------------------------------------------------------------ *)
(* Sync barrier *)

let test_barrier_rounds () =
  let w = Engine.create ~nthreads:4 Config.baseline in
  let arena = Engine.global_arena w in
  let barrier = Sync.create (Access.of_arena arena) ~nthreads:4 in
  let log = Alloc.alloc arena 64 in
  let mem = Engine.memory w in
  let pos = Alloc.alloc arena 1 in
  let _ =
    Engine.run_sim w (fun th ->
        for round = 1 to 4 do
          (* Record (round) under a txn, then barrier. *)
          Txn.atomic th (fun tx ->
              let k = Txn.read tx pos in
              Txn.write tx pos (k + 1);
              Txn.write tx (log + k) round);
          Sync.wait barrier th ()
        done)
  in
  (* All entries of round r must precede all of round r+1. *)
  let rounds = List.init 16 (fun k -> Memory.get mem (log + k)) in
  check "rounds strictly phased" true (List.sort compare rounds = rounds)

let test_barrier_serial_once_per_round () =
  let w = Engine.create ~nthreads:8 Config.baseline in
  let barrier = Sync.create (Access.of_arena (Engine.global_arena w)) ~nthreads:8 in
  let serial_runs = ref 0 in
  let _ =
    Engine.run_sim w (fun th ->
        for _ = 1 to 3 do
          Sync.wait barrier th ~serial:(fun () -> incr serial_runs) ()
        done)
  in
  check_int "exactly once per round" 3 !serial_runs

(* ------------------------------------------------------------------ *)
(* Stats *)

(* A fresh record whose row [i] holds [i + 1]. *)
let numbered () =
  let s = Stats.create () in
  List.iteri (fun i c -> c.Stats.set s (i + 1)) Stats.counters;
  s

(* The integer fields, read in declaration order, must be exactly
   [1 .. rows]: a field with no row stays 0, a row out of field order or
   two rows on one field break the sequence. *)
let test_stats_schema_covers_fields () =
  let s = numbered () in
  let r = Obj.repr s in
  let ints =
    List.filter_map
      (fun i ->
        let f = Obj.field r i in
        if Obj.is_int f then Some (Obj.obj f : int) else None)
      (List.init (Obj.size r) Fun.id)
  in
  let rows = List.length Stats.counters in
  check_int "one row per integer field" rows (List.length ints);
  check "fields hold 1 .. rows in order" true
    (ints = List.init rows (fun i -> i + 1));
  List.iteri
    (fun i c -> check_int c.Stats.name (i + 1) (c.Stats.get s))
    Stats.counters

let test_stats_merge_kinds () =
  let a = numbered () and b = Stats.create () in
  List.iteri (fun i c -> c.Stats.set b (1000 - i)) Stats.counters;
  let before = List.map (fun c -> c.Stats.get a) Stats.counters in
  Stats.note_pair a ~tid:2 ~peer:3;
  Stats.note_pair b ~tid:2 ~peer:3;
  Stats.note_pair b ~tid:1 ~peer:0;
  Stats.note_pair b ~tid:(Stats.max_tids - 1) ~peer:(Stats.max_tids - 2);
  Stats.merge a b;
  List.iteri
    (fun i (c, x) ->
      let y = 1000 - i in
      let want =
        match c.Stats.merge with Stats.Sum -> x + y | Stats.Max -> max x y
      in
      check_int c.Stats.name want (c.Stats.get a))
    (List.combine Stats.counters before);
  check "three max rows" true
    (List.filter_map
       (fun c -> if c.Stats.merge = Stats.Max then Some c.Stats.name else None)
       Stats.counters
    = [ "cm_max_consec_aborts"; "limbo_blocks"; "limbo_words" ]);
  check "pairs added per key" true
    (match Stats.pairs a with
    | (2, 3, 2) :: rest ->
        List.sort compare rest
        = [ (1, 0, 1); (Stats.max_tids - 1, Stats.max_tids - 2, 1) ]
    | _ -> false)

let occurrences sub s =
  let n = String.length sub in
  let rec go i acc =
    if i + n > String.length s then acc
    else go (i + 1) (if String.sub s i n = sub then acc + 1 else acc)
  in
  go 0 0

let test_stats_json_fields () =
  let s = numbered () in
  Stats.note_pair s ~tid:2 ~peer:3;
  Stats.note_pair s ~tid:2 ~peer:3;
  Stats.note_pair s ~tid:1 ~peer:0;
  let json = Stats.json_fields s in
  List.iteri
    (fun i c ->
      let key = Printf.sprintf "\"%s\":" c.Stats.name in
      check_int (c.Stats.name ^ " once") 1 (occurrences key json);
      check_int (c.Stats.name ^ " value") 1
        (occurrences (Printf.sprintf "%s%d," key (i + 1)) json))
    Stats.counters;
  check_int "pairs hottest first, keyed (tid, peer)" 1
    (occurrences
       "\"top_conflict_pairs\":[{\"tid\":2,\"peer\":3,\"count\":2},\
        {\"tid\":1,\"peer\":0,\"count\":1}]"
       json)

(* The hottest pair is reported whenever one exists. *)
let test_stats_report_pair () =
  let s = Stats.create () in
  check_int "no pair, no line" 0 (occurrences "top_conflict_pair" (Stats.report s));
  Stats.note_pair s ~tid:4 ~peer:5;
  check_int "pair line" 1 (occurrences "t4 vs t5 (1 waits)" (Stats.report s))

let test_abort_ratio () =
  let s = Stats.create () in
  s.Stats.commits <- 4;
  s.Stats.aborts <- 2;
  Alcotest.(check (float 1e-9)) "ratio" 0.5 (Stats.abort_ratio s);
  let empty = Stats.create () in
  Alcotest.(check (float 1e-9)) "no commits" 0. (Stats.abort_ratio empty)

(* ------------------------------------------------------------------ *)
(* Costs *)

let test_costs_relative_magnitudes () =
  (* The cost model must respect the paper's orderings. *)
  check "barrier >> direct" true (Costs.read_barrier >= 10 * Costs.direct_access);
  check "write > read" true (Costs.write_barrier_acquire > Costs.read_barrier);
  check "stack check cheap" true (Costs.stack_check < Costs.read_barrier / 4);
  check "owned faster than fresh" true (Costs.read_owned < Costs.read_barrier);
  check "backoff grows" true
    (Costs.backoff ~attempt:5 ~jitter:0 > Costs.backoff ~attempt:1 ~jitter:0);
  (* The window stops doubling exactly at [backoff_max_shift]. *)
  let cap = 64 lsl Costs.backoff_max_shift in
  check_int "backoff capped" cap (Costs.backoff ~attempt:60 ~jitter:0);
  check_int "cap reached at attempt 6" cap (Costs.backoff ~attempt:6 ~jitter:0);
  check_int "cap is 2048 cycles" 2048 cap

(* Fault.Delayed_unlock only makes waiters spin out if the commit holds
   its locks longer than a waiter's whole lock-wait budget: this holds
   for the [spin_limit] budget of a waiter that owns an orec or has a
   short read log, not for the longer budget a waiter with no orec and
   a long log gets ([Lock_wait.spin_on_lock]). *)
let test_costs_delayed_unlock_outlasts_wait () =
  check "delay > spin_limit * lock_spin" true
    (Costs.fault_unlock_delay > Costs.spin_limit * Costs.lock_spin)

(* The fault still bites where the budget is [spin_limit]: on the
   counter micro every waiter has read at most the one cell, so a
   delayed unlock makes at least one of them spin out, and the count
   stays exact. *)
let test_delayed_unlock_spins_out () =
  let counter = Workloads.counter ~nthreads:2 ~incs:4 in
  let p =
    counter.Workloads.prepare
      (Config.with_fault (Some Fault.Delayed_unlock)
         (Config.runtime Alloc_log.Tree))
  in
  let r = Engine.run_sim ~seed:1 p.App.world p.App.body in
  check "counter verifies" true (p.App.verify () = Ok ());
  check "the fault fired" true (r.Engine.stats.Stats.faults_injected > 0);
  check "a waiter spun out" true (r.Engine.stats.Stats.spin_aborts > 0);
  check_int "no extended wait" 0 r.Engine.stats.Stats.waits_extended

(* The documented contract of Costs.backoff, as properties: monotone in
   the attempt number, jitter adds at most [63 * attempt] over the
   jitter-free value, the jitter-free value never exceeds the cap, and
   the result is never negative. *)
let backoff_args =
  QCheck.(pair (int_range 1 100) (int_range 0 1_000_000))

let prop_backoff_monotone =
  QCheck.Test.make ~name:"Costs.backoff monotone in attempt" ~count:500
    backoff_args (fun (attempt, jitter) ->
      Costs.backoff ~attempt:(attempt + 1) ~jitter
      >= Costs.backoff ~attempt ~jitter)

let prop_backoff_jitter_bounded =
  QCheck.Test.make ~name:"Costs.backoff jitter within 63*attempt" ~count:500
    backoff_args (fun (attempt, jitter) ->
      let d =
        Costs.backoff ~attempt ~jitter - Costs.backoff ~attempt ~jitter:0
      in
      0 <= d && d <= 63 * attempt)

let prop_backoff_capped =
  QCheck.Test.make ~name:"Costs.backoff jitter-free at most the cap"
    ~count:500 QCheck.(int_range 0 1000) (fun attempt ->
      Costs.backoff ~attempt ~jitter:0 <= 64 lsl Costs.backoff_max_shift)

let prop_backoff_non_negative =
  QCheck.Test.make ~name:"Costs.backoff never negative" ~count:500
    QCheck.(pair (int_range 0 1000) small_nat)
    (fun (attempt, jitter) -> Costs.backoff ~attempt ~jitter >= 0)

(* ------------------------------------------------------------------ *)
(* Fault registry *)

let test_fault_names_roundtrip () =
  List.iter
    (fun f ->
      match Fault.of_name (Fault.name f) with
      | Some f' -> check (Fault.name f) true (f = f')
      | None -> Alcotest.failf "fault %s does not round-trip" (Fault.name f))
    Fault.all;
  check "unknown rejected" true (Fault.of_name "bogus" = None);
  (* Every kind's row, in [Fault.all]'s order: name, crash point or not,
     expectation, percent rate. *)
  let golden =
    Fault.
      [
        ("skip-validation", false, Flagged, 100);
        ("blind-rescue", false, Flagged, 100);
        ("stale-read", false, Flagged, 50);
        ("delayed-unlock", false, Contained, 50);
        ("spurious-abort", false, Contained, 4);
        ("alloc-log-drop", false, Contained, 50);
        ("clock-stall", false, Flagged, 50);
        ("redo-drop", false, Flagged, 50);
        ("publish-partial", false, Flagged, 50);
        ("crash-pre-commit", true, Contained, 20);
        ("crash-mid-publish", true, Contained, 20);
        ("crash-post-publish", true, Contained, 20);
        ("crash-mid-checkpoint", true, Contained, 100);
        ("torn-wal-record", true, Contained, 20);
        ("torn-tail-replayed", true, Flagged, 20);
        ("premature-reuse", false, Flagged, 50);
      ]
  in
  check_int "one row per kind" (List.length golden) (List.length Fault.all);
  List.iter2
    (fun f (name, crash, expectation, rate) ->
      Alcotest.(check string) "name" name (Fault.name f);
      check (name ^ " crash") crash (Fault.is_crash f);
      check (name ^ " expectation") true (Fault.expectation f = expectation);
      check_int (name ^ " rate") rate (Fault.rate f))
    Fault.all golden

let () =
  Alcotest.run "engine"
    [
      ( "orec",
        [
          Alcotest.test_case "encoding" `Quick test_orec_encoding;
          Alcotest.test_case "lock cycle" `Quick test_orec_lock_cycle;
          Alcotest.test_case "version clock" `Quick test_orec_clock;
          Alcotest.test_case "line granularity" `Quick
            test_orec_line_granularity;
          Alcotest.test_case "no pow2 aliasing" `Quick
            test_orec_hash_no_power_of_two_aliasing;
        ] );
      ( "geometry",
        Alcotest.test_case "create validation" `Quick
          test_orec_create_validation
        :: Alcotest.test_case "clock of config" `Quick test_clock_of_config
        :: Alcotest.test_case "tid bound" `Quick test_tid_bound
        :: List.map Qc.to_alcotest [ prop_index_in_table; prop_word_roundtrip ]
      );
      ("read map", List.map Qc.to_alcotest [ prop_read_map_model ]);
      ( "engine",
        [
          Alcotest.test_case "disjoint layout" `Quick
            test_engine_memory_layout_disjoint;
          Alcotest.test_case "thread seeds" `Quick
            test_engine_thread_seeds_differ;
          Alcotest.test_case "seed sensitivity" `Quick
            test_engine_seed_changes_run;
          Alcotest.test_case "per-thread stats" `Quick
            test_engine_per_thread_stats;
          Alcotest.test_case "thread size independent of orecs" `Quick
            test_thread_size_independent_of_orecs;
        ] );
      ( "sync",
        [
          Alcotest.test_case "rounds" `Quick test_barrier_rounds;
          Alcotest.test_case "serial once" `Quick
            test_barrier_serial_once_per_round;
        ] );
      ( "stats",
        [
          Alcotest.test_case "schema covers fields" `Quick
            test_stats_schema_covers_fields;
          Alcotest.test_case "merge kinds" `Quick test_stats_merge_kinds;
          Alcotest.test_case "json fields" `Quick test_stats_json_fields;
          Alcotest.test_case "report pair" `Quick test_stats_report_pair;
          Alcotest.test_case "abort ratio" `Quick test_abort_ratio;
        ] );
      ( "costs",
        Alcotest.test_case "magnitudes" `Quick test_costs_relative_magnitudes
        :: Alcotest.test_case "delayed unlock outlasts lock wait" `Quick
             test_costs_delayed_unlock_outlasts_wait
        :: List.map Qc.to_alcotest
             [
               prop_backoff_monotone;
               prop_backoff_jitter_bounded;
               prop_backoff_capped;
               prop_backoff_non_negative;
             ] );
      ( "fault",
        [
          Alcotest.test_case "registry round-trip" `Quick
            test_fault_names_roundtrip;
          Alcotest.test_case "delayed unlock spins out a counter waiter"
            `Quick test_delayed_unlock_spins_out;
        ] );
    ]
