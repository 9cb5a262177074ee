(* Native-backend tests: real domains, barrier allocation behaviour, and
   the simulator-determinism contract the hot-path rewrite must keep.

   The counter/bank micros run on 2-4 domains; on a single-core host the
   domains interleave rather than overlap, which still exercises every
   synchronization path (orec CAS contention, backoff, join-time stat
   collection) even though it proves nothing about speedup. *)

open Captured_stm
module App = Captured_apps.App
module Registry = Captured_apps.Registry
module Memory = Captured_tmem.Memory
module Alloc = Captured_tmem.Alloc
module Alloc_log = Captured_core.Alloc_log

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Counter micro: N domains hammer one cell *)

let run_counter ~nthreads ~incs config =
  let w = Engine.create ~nthreads config in
  let cell = Alloc.alloc (Engine.global_arena w) 1 in
  let r =
    Engine.run_native w (fun th ->
        for _ = 1 to incs do
          Txn.atomic th (fun tx -> Txn.write tx cell (Txn.read tx cell + 1))
        done)
  in
  (r, Memory.get (Engine.memory w) cell, Orec.clock (Engine.orecs w))

let test_counter_domains nthreads () =
  let incs = 200 in
  let r, total, _ = run_counter ~nthreads ~incs Config.baseline in
  check_int "no lost updates" (nthreads * incs) total;
  check_int "every transaction committed" (nthreads * incs)
    r.Engine.stats.Stats.commits;
  check_int "per-domain commit split" incs
    r.Engine.per_thread.(nthreads - 1).Stats.commits;
  check "wall-derived makespan is nonzero" true (r.Engine.makespan > 0);
  check_int "one wall entry per domain" nthreads
    (Array.length r.Engine.per_thread_wall);
  Array.iter
    (fun wall -> check "per-domain wall is nonzero" true (wall > 0.))
    r.Engine.per_thread_wall;
  (* The run's makespan is the slowest domain's span, in nanoseconds. *)
  let slowest = Array.fold_left max 0. r.Engine.per_thread_wall in
  check_int "makespan = slowest domain" (int_of_float (1e9 *. slowest))
    r.Engine.makespan

let global_config = Config.with_tvalidate Config.baseline

(* Under the Global clock every writer commit advances the shared clock
   once, and nothing else does: the clock ends at the advances counted. *)
let test_counter_global config () =
  let r, total, clock = run_counter ~nthreads:4 ~incs:100 config in
  let advances = r.Engine.stats.Stats.clock_advances in
  check_int "no lost updates" 400 total;
  check_int "commits" 400 r.Engine.stats.Stats.commits;
  check "each commit advanced the clock" true (advances >= 400);
  check_int "clock = advances" advances clock

(* Thread 1 reads one cell, then waits inside its transaction while
   thread 0 commits to the other cells (one line each), stamping them
   past thread 1's snapshot: thread 1 must extend its snapshot and commit
   without an abort, in the simulator and on real domains alike. *)
let run_snapshot_extension ~mode =
  let rounds = 16 and stride = 8 in
  let w = Engine.create ~nthreads:2 global_config in
  let cells = Alloc.alloc (Engine.global_arena w) (rounds * stride) in
  let out = Alloc.alloc (Engine.global_arena w) 1 in
  let opened = Atomic.make false and written = Atomic.make false in
  let body th =
    if Txn.thread_id th = 0 then begin
      while not (Atomic.get opened) do
        Txn.yield_hint th
      done;
      for k = 1 to rounds - 1 do
        Txn.atomic th (fun tx -> Txn.write tx (cells + (k * stride)) k)
      done;
      Atomic.set written true
    end
    else
      Txn.atomic th (fun tx ->
          let sum = ref (Txn.read tx cells) in
          Atomic.set opened true;
          while not (Atomic.get written) do
            Txn.yield_hint th
          done;
          for k = 1 to rounds - 1 do
            sum := !sum + Txn.read tx (cells + (k * stride))
          done;
          Txn.write tx out !sum)
  in
  let r =
    match mode with
    | `Native -> Engine.run_native w body
    | `Sim seed -> Engine.run_sim ~seed w body
  in
  check_int "reader summed every write" (rounds * (rounds - 1) / 2)
    (Memory.get (Engine.memory w) out);
  check_int "commits" rounds r.Engine.stats.Stats.commits;
  check_int "aborts" 0 r.Engine.stats.Stats.aborts;
  check_int "one clock advance per writer commit" rounds
    r.Engine.stats.Stats.clock_advances;
  check "newer stamps forced a snapshot extension" true
    (r.Engine.per_thread.(1).Stats.snapshot_extensions >= 1)

let test_snapshot_extension () =
  run_snapshot_extension ~mode:(`Sim 11);
  run_snapshot_extension ~mode:`Native

(* ------------------------------------------------------------------ *)
(* Bank micro: random transfers conserve the total balance *)

let test_bank_invariant () =
  let nthreads = 4 and accounts = 8 and transfers = 150 and opening = 100 in
  let w = Engine.create ~nthreads Config.baseline in
  let base = Alloc.alloc (Engine.global_arena w) accounts in
  for i = 0 to accounts - 1 do
    Memory.set (Engine.memory w) (base + i) opening
  done;
  let _ =
    Engine.run_native w (fun th ->
        let g = Txn.thread_prng th in
        for _ = 1 to transfers do
          let src = Captured_util.Prng.int g accounts
          and dst = Captured_util.Prng.int g accounts
          and amount = 1 + Captured_util.Prng.int g 5 in
          Txn.atomic th (fun tx ->
              Txn.write tx (base + src) (Txn.read tx (base + src) - amount);
              Txn.write tx (base + dst) (Txn.read tx (base + dst) + amount))
        done)
  in
  let total = ref 0 in
  for i = 0 to accounts - 1 do
    total := !total + Memory.get (Engine.memory w) (base + i)
  done;
  check_int "balance conserved" (accounts * opening) !total

(* ------------------------------------------------------------------ *)
(* Orec stubs under real parallelism *)

(* Domains lock eight adjacent records of the dense table (one cache
   line's worth) with [Orec.try_lock]/[unlock], each record guarding a
   plain counter.  A lost increment means two domains held one record at
   once; every record must end unlocked, bumped once per increment. *)
let test_orec_adjacent_mutex ndomains () =
  let t = Orec.create ~bits:10 in
  let first = 64 and rounds = 5000 in
  let counters = Array.make 8 0 in
  let worker d () =
    for k = 1 to rounds do
      let r = (d + k) land 7 in
      let i = first + r in
      let held = ref (-1) in
      while !held < 0 do
        let w = Orec.get t i in
        if (not (Orec.is_locked w)) && Orec.try_lock t i ~owner:d ~expected:w
        then held := w
        else Domain.cpu_relax ()
      done;
      counters.(r) <- counters.(r) + 1;
      Orec.unlock t i (Orec.bumped !held)
    done
  in
  let spawned =
    List.init (ndomains - 1) (fun d -> Domain.spawn (worker (d + 1)))
  in
  worker 0 ();
  List.iter Domain.join spawned;
  check_int "no lost increment" (ndomains * rounds)
    (Array.fold_left ( + ) 0 counters);
  Array.iteri
    (fun r n ->
      let w = Orec.get t (first + r) in
      check "record ends unlocked" false (Orec.is_locked w);
      check_int "one version bump per increment" n (Orec.version_of w))
    counters

(* ------------------------------------------------------------------ *)
(* STAMP app natively, across the scale-bench config matrix *)

let vacation = Option.get (Registry.find "vacation-low")

let scale_configs =
  let base = Config.runtime Alloc_log.Tree in
  [
    ("base", base);
    ("fp", Config.with_fastpath base);
    ("tv", Config.with_tvalidate base);
    ("fptv", Config.with_fastpath (Config.with_tvalidate base));
  ]

let test_vacation_native (name, config) () =
  (* Test scale runs 40 transactions per thread; [App.run_checked] also
     re-verifies the reservation-table invariants post-run. *)
  match
    App.run_checked vacation ~nthreads:4 ~scale:App.Test ~mode:`Native config
  with
  | Error msg -> Alcotest.failf "verification failed under %s: %s" name msg
  | Ok r -> check_int "all transactions committed" 160 r.Engine.stats.Stats.commits

let test_vacation_native_fences () =
  match
    App.run_checked vacation ~nthreads:2 ~scale:App.Test ~mode:`Native
      (Result.get_ok (Config.of_string "tree+fence"))
  with
  | Error msg -> Alcotest.failf "verification failed with fences: %s" msg
  | Ok r -> check_int "commits" 80 r.Engine.stats.Stats.commits

(* ------------------------------------------------------------------ *)
(* Zero-allocation barriers *)

(* Minor-heap words allocated by [f ()].  Both probes carry the same
   constant overhead (the boxed float holding [before]), so equal deltas
   at different iteration counts mean the per-iteration cost is zero. *)
let minor_delta f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let test_zero_alloc_full_path () =
  (* Baseline config: every access takes the full orec-protected barrier
     (read-set and undo-log pushes included). *)
  let w = Engine.create ~nthreads:1 Config.baseline in
  let th = Engine.setup_thread w in
  let span = 2048 in
  let base = Alloc.alloc (Engine.global_arena w) span in
  (* Warm-up: grows the tx-resident read/undo/acquire arrays past any
     size the measured loops need; the tx record is reused afterwards. *)
  Txn.atomic th (fun tx ->
      for k = 0 to span - 1 do
        Txn.write tx (base + k) (Txn.read tx (base + k) + 1)
      done);
  let measure n =
    Txn.atomic th (fun tx ->
        minor_delta (fun () ->
            for k = 0 to n - 1 do
              Txn.write tx (base + k) (Txn.read tx (base + k) + 1)
            done))
  in
  let small = measure 64 and large = measure 512 in
  Alcotest.(check (float 0.)) "full barriers allocate nothing" small large

let test_zero_alloc_elided_path () =
  (* Runtime capture analysis: accesses to a block allocated inside the
     transaction are elided down to raw loads/stores. *)
  let w =
    Engine.create ~nthreads:1
      (Config.with_fastpath (Config.runtime Alloc_log.Tree))
  in
  let th = Engine.setup_thread w in
  let measure n =
    Txn.atomic th (fun tx ->
        let block = Txn.alloc tx 512 in
        minor_delta (fun () ->
            for k = 0 to n - 1 do
              Txn.write tx (block + k) (Txn.read tx (block + k) + 1)
            done))
  in
  (* One throwaway round warms the capture-log internals. *)
  ignore (measure 8 : float);
  let small = measure 64 and large = measure 512 in
  Alcotest.(check (float 0.)) "elided barriers allocate nothing" small large;
  let s = Txn.thread_stats th in
  check "accesses really were elided" true
    (s.Stats.reads_elided_heap + s.Stats.reads_elided_private > 500)

let bypassed_site =
  Captured_core.Site.declare ~write:true "native.test.bypassed"

let test_zero_alloc_bypassed_site () =
  (* +fp site tier: a named site that only ever touches shared memory is
     bypassed after one window, and its accesses then pay the tier and
     the full barrier — with no allocation either. *)
  let w =
    Engine.create ~nthreads:1
      (Config.with_fastpath (Config.runtime Alloc_log.Tree))
  in
  let th = Engine.setup_thread w in
  let span = 2048 in
  let base = Alloc.alloc (Engine.global_arena w) span in
  let site = bypassed_site in
  let touch tx n =
    for k = 0 to n - 1 do
      Txn.write_at ~site tx (base + k) (Txn.read_at ~site tx (base + k) + 1)
    done
  in
  (* Warm-up: sizes the tx arrays and closes the site's first window. *)
  Txn.atomic th (fun tx -> touch tx span);
  let s = Txn.thread_stats th in
  let bypasses = s.Stats.capture_site_bypasses in
  let measure n =
    Txn.atomic th (fun tx -> minor_delta (fun () -> touch tx n))
  in
  let small = measure 64 and large = measure 512 in
  Alcotest.(check (float 0.)) "bypassed barriers allocate nothing" small large;
  check "accesses really were bypassed" true
    (s.Stats.capture_site_bypasses - bypasses > 1000)

let test_zero_alloc_forwarded_path () =
  (* Re-reads of addresses the attempt already read are forwarded from
     the read log — with no allocation either.  The 512-read leg also
     empties the validation fuel, which forwarded reads burn, so it
     covers one zombie-guard validation as well. *)
  let w = Engine.create ~nthreads:1 Config.baseline in
  let th = Engine.setup_thread w in
  (* One cell per conflict-detection line, so each has its own read-log
     entry (a line-mate's read would take the entry's forwarding pair). *)
  let line = Orec.line_words and cells = 64 in
  let base = Alloc.alloc (Engine.global_arena w) (line * cells) in
  let cell k = base + (line * (k land (cells - 1))) in
  let s = Txn.thread_stats th in
  let measure n =
    Txn.atomic th (fun tx ->
        for k = 0 to cells - 1 do
          ignore (Txn.read tx (cell k) : int)
        done;
        minor_delta (fun () ->
            for k = 0 to n - 1 do
              ignore (Txn.read tx (cell k) : int)
            done))
  in
  (* Warm-up: grows the tx-resident read log and its map. *)
  ignore (measure 8 : float);
  let forwarded = s.Stats.reads_forwarded in
  let small = measure 64 and large = measure 512 in
  Alcotest.(check (float 0.)) "forwarded reads allocate nothing" small large;
  check_int "every re-read was forwarded" (64 + 512)
    (s.Stats.reads_forwarded - forwarded)

(* ------------------------------------------------------------------ *)
(* Simulator determinism: the hot-path rewrite must not change a single
   scheduling decision.  Reference numbers captured from the simulator
   before the native-backend work; any drift in commits, aborts or
   virtual makespan means replay/exploration traces are invalidated. *)

(* Every vacation-low pin was re-pinned when the default backoff's
   exponential window was capped at [Costs.backoff_max_shift] = 5
   doublings (2048 jitter-free cycles; it was 10), with commits
   unchanged at 160.  Four threads abort often enough here to reach the
   old cap's longer waits, so every schedule shifts: makespans fall 17 to
   29 % and aborts rise, since waiters retry sooner.  Previous (aborts,
   makespan) in each comment.  The kmeans pin below never aborts six
   times in a row, so it never reaches either cap and is unchanged. *)
let sim_refs =
  let tree = Config.runtime Alloc_log.Tree in
  [
    (* was 99, 258810 *)
    ("baseline", Config.baseline, 112, 192886);
    (* was 92, 252447 *)
    ( "baseline+fp+tv",
      Config.with_fastpath (Config.with_tvalidate Config.baseline),
      110,
      179616 );
    (* was 74, 283028 *)
    ("tree", tree, 121, 204432);
    (* was 83, 260829 *)
    ("tree+fp+tv", Config.with_fastpath (Config.with_tvalidate tree), 144, 199675);
    (* Commit-path coverage: the lazy acquire and the durable commit
       record. *)
    (* was 60, 284687 *)
    ("tree+lazy", Config.with_lazy tree, 74, 209379);
    (* was 71, 254751 *)
    ("tree+lazy+tv", Config.with_lazy (Config.with_tvalidate tree), 72, 212813);
    (* was 53, 290314 *)
    ( "tree+lazy+tv+wal",
      Config.with_durable (Config.with_lazy (Config.with_tvalidate tree)),
      78,
      218701 );
  ]

let test_sim_determinism (name, config, aborts, makespan) () =
  let r =
    App.run vacation ~nthreads:4 ~scale:App.Test ~mode:(`Sim 3) config
  in
  check_int (name ^ " commits") 160 r.Engine.stats.Stats.commits;
  check_int (name ^ " aborts") aborts r.Engine.stats.Stats.aborts;
  check_int (name ^ " makespan") makespan r.Engine.makespan

let test_sim_determinism_kmeans () =
  let kmeans = Option.get (Registry.find "kmeans-low") in
  let r =
    App.run kmeans ~nthreads:2 ~scale:App.Test ~mode:(`Sim 7)
      (Config.runtime Alloc_log.Tree)
  in
  check_int "commits" 198 r.Engine.stats.Stats.commits;
  check_int "aborts" 33 r.Engine.stats.Stats.aborts;
  check_int "makespan" 47189 r.Engine.makespan

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "native"
    [
      ( "micro",
        [
          Alcotest.test_case "counter 2 domains" `Quick
            (test_counter_domains 2);
          Alcotest.test_case "counter 4 domains" `Quick
            (test_counter_domains 4);
          Alcotest.test_case "counter tvalidate" `Quick
            (test_counter_global global_config);
          Alcotest.test_case "bank invariant" `Quick test_bank_invariant;
          Alcotest.test_case "adjacent orecs 2 domains" `Quick
            (test_orec_adjacent_mutex 2);
          Alcotest.test_case "adjacent orecs 4 domains" `Quick
            (test_orec_adjacent_mutex 4);
        ] );
      ( "global clock",
        [
          Alcotest.test_case "counter lazy+tv" `Quick
            (test_counter_global (Config.with_lazy global_config));
          Alcotest.test_case "snapshot extension" `Quick
            test_snapshot_extension;
        ] );
      ( "stamp",
        List.map
          (fun ((name, _) as entry) ->
            Alcotest.test_case ("vacation-low " ^ name) `Quick
              (test_vacation_native entry))
          scale_configs
        @ [
            Alcotest.test_case "vacation-low fences" `Quick
              test_vacation_native_fences;
          ] );
      ( "zero-alloc",
        [
          Alcotest.test_case "full barrier path" `Quick
            test_zero_alloc_full_path;
          Alcotest.test_case "elided barrier path" `Quick
            test_zero_alloc_elided_path;
          Alcotest.test_case "bypassed site path" `Quick
            test_zero_alloc_bypassed_site;
          Alcotest.test_case "forwarded read path" `Quick
            test_zero_alloc_forwarded_path;
        ] );
      ( "sim-determinism",
        List.map
          (fun ((name, _, _, _) as entry) ->
            Alcotest.test_case ("vacation-low " ^ name) `Quick
              (test_sim_determinism entry))
          sim_refs
        @ [
            Alcotest.test_case "kmeans-low tree" `Quick
              test_sim_determinism_kmeans;
          ] );
    ]
