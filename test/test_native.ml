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
   once, and so does every eager abort that stored in place (its orecs
   need a fresh stamp); nothing else does: the clock ends at the
   advances counted. *)
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

(* Long read logs: each transaction reads a 64-cell block (an array:
   16 lines, so 16 read-log entries) before it increments the counter,
   so a domain that finds the counter locked owns no orec and may wait
   up to its redo break-even, after a doom scan of those entries,
   instead of spinning out at [Costs.spin_limit] ([Lock_wait.spin_on_lock]).
   The block holds zeros, which every read adds to the increment. *)
let run_longread ~nthreads ~incs config =
  let w = Engine.create ~nthreads config in
  let block = Alloc.alloc (Engine.global_arena w) 64 in
  let cell = Alloc.alloc (Engine.global_arena w) 1 in
  let r =
    Engine.run_native w (fun th ->
        for _ = 1 to incs do
          Txn.atomic th (fun tx ->
              let sum = ref 1 in
              for k = 0 to 63 do
                sum := !sum + Txn.read tx (block + k)
              done;
              Txn.write tx cell (Txn.read tx cell + !sum))
        done)
  in
  (r, Memory.get (Engine.memory w) cell)

let longread_configs =
  [
    ("eager", Config.baseline);
    ("tv", global_config);
    ("lazy", Config.with_lazy Config.baseline);
    ("lazy+tv", Config.with_lazy global_config);
  ]

let test_longread_domains nthreads () =
  let incs = 1000 in
  List.iter
    (fun (name, config) ->
      let r, total = run_longread ~nthreads ~incs config in
      let commits = r.Engine.stats.Stats.commits in
      check_int (name ^ ": every transaction committed") (nthreads * incs)
        commits;
      check_int (name ^ ": counter = committed increments") commits total)
    longread_configs

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
(* First stores into untouched chunks *)

(* Domains race to make the first stores into the same untouched memory
   chunks: transactional writes at distinct addresses of one block, and
   raw stores to distinct addresses of a second block each domain has
   privatized.  Both blocks span whole chunks that nothing has written
   yet (allocation zeroes by zero stores, which leave a chunk
   untouched).  If two domains could each install a chunk for the same
   slot, the stores into the one that lost would vanish; every store
   must survive, and each chunk must be materialized exactly once. *)
let first_store_chunks = 6

let test_first_store_race ndomains () =
  let cw = Memory.chunk_words in
  for round = 1 to 20 do
    let w = Engine.create ~nthreads:ndomains (Config.with_ebr Config.baseline) in
    let mem = Engine.memory w in
    (* A fresh block and the chunks wholly inside it, each named by its
       first word. *)
    let block () =
      let b = Alloc.alloc (Engine.global_arena w) (first_store_chunks * cw) in
      let first = (b + cw - 1) / cw
      and stop = (b + (first_store_chunks * cw)) / cw in
      (b, Array.init (stop - first) (fun k -> (first + k) * cw))
    in
    let _, tx_chunks = block () in
    let raw_block, raw_chunks = block () in
    let chunks = Array.append tx_chunks raw_chunks in
    let value tid c = 1 + tid + (round * 100) + c in
    let resident = Memory.resident_words mem in
    let arrived = Atomic.make 0 in
    let _ =
      Engine.run_native ~seed:round w (fun th ->
          let tid = Txn.thread_id th in
          Txn.privatize th ~addr:raw_block ~size:(first_store_chunks * cw);
          (* Start together, so the first stores overlap. *)
          Atomic.incr arrived;
          while Atomic.get arrived < ndomains do
            Domain.cpu_relax ()
          done;
          (* The two kinds of first store, alternating. *)
          for k = 0 to first_store_chunks - 1 do
            if k < Array.length tx_chunks then begin
              let c = tx_chunks.(k) in
              Txn.atomic th (fun tx -> Txn.write tx (c + tid) (value tid c))
            end;
            if k < Array.length raw_chunks then begin
              let r = raw_chunks.(k) in
              Txn.raw_write th (r + tid) (value tid r)
            end
          done)
    in
    Array.iter
      (fun c ->
        for tid = 0 to ndomains - 1 do
          check_int
            (Printf.sprintf "round %d: store of thread %d at %d" round tid
               (c + tid))
            (value tid c)
            (Memory.get mem (c + tid))
        done)
      chunks;
    check_int
      (Printf.sprintf "round %d: each chunk materialized once" round)
      (resident + (Array.length chunks * cw))
      (Memory.resident_words mem)
  done

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
     (read-set and write-set pushes included). *)
  let w = Engine.create ~nthreads:1 Config.baseline in
  let th = Engine.setup_thread w in
  let span = 2048 in
  let base = Alloc.alloc (Engine.global_arena w) span in
  (* Warm-up: grows the tx-resident read/write-set/journal/acquire arrays
     past any size the measured loops need; the tx record is reused
     afterwards. *)
  Txn.atomic th (fun tx ->
      for k = 0 to span - 1 do
        Txn.write tx (base + k) (Txn.read tx (base + k) + 1)
      done;
      Txn.atomic th (fun tx' ->
          for k = 0 to span - 1 do
            Txn.write tx' (base + k) k
          done));
  let measure n =
    Txn.atomic th (fun tx ->
        minor_delta (fun () ->
            for k = 0 to n - 1 do
              Txn.write tx (base + k) (Txn.read tx (base + k) + 1)
            done))
  in
  let small = measure 64 and large = measure 512 in
  Alcotest.(check (float 0.)) "full barriers allocate nothing" small large;
  (* Each address written twice: an insert, then a rewrite. *)
  let measure_rewrites n =
    Txn.atomic th (fun tx ->
        minor_delta (fun () ->
            for k = 0 to n - 1 do
              Txn.write tx (base + k) k;
              Txn.write tx (base + k) (k + 1)
            done))
  in
  let small = measure_rewrites 64 and large = measure_rewrites 512 in
  Alcotest.(check (float 0.)) "rewrites allocate nothing" small large;
  (* A nested scope rewrites the outer scope's entries: a journal entry,
     then a rewrite of the scope's own.  Opening the scope allocates; the
     measured loop runs inside it. *)
  let measure_nested n =
    Txn.atomic th (fun tx ->
        for k = 0 to n - 1 do
          Txn.write tx (base + k) k
        done;
        Txn.atomic th (fun tx' ->
            minor_delta (fun () ->
                for k = 0 to n - 1 do
                  Txn.write tx' (base + k) (k + 1);
                  Txn.write tx' (base + k) (k + 2)
                done)))
  in
  let small = measure_nested 64 and large = measure_nested 512 in
  Alcotest.(check (float 0.)) "nested rewrites allocate nothing" small large

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

let init_site =
  Captured_core.Site.declare ~init_only:true ~write:false "native.test.init"

(* Init-only reads of published words load them directly, on both
   engines (under +lazy after the write-set probe), and allocate
   nothing. *)
let test_zero_alloc_init_path spelling () =
  let config = Result.get_ok (Config.of_string spelling) in
  let w = Engine.create ~nthreads:1 config in
  let th = Engine.setup_thread w in
  let base = Alloc.alloc (Engine.global_arena w) 512 in
  let measure n =
    Txn.atomic th (fun tx ->
        minor_delta (fun () ->
            for k = 0 to n - 1 do
              ignore (Txn.read_at ~site:init_site tx (base + k) : int)
            done))
  in
  ignore (measure 8 : float);
  let s = Txn.thread_stats th in
  let before = s.Stats.reads_elided_init in
  let small = measure 64 and large = measure 512 in
  Alcotest.(check (float 0.)) "init-only reads allocate nothing" small large;
  check_int "every read was init-only" (64 + 512)
    (s.Stats.reads_elided_init - before)

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
  check "an array block: one orec per 4-word line" true
    (Orec.line_words_at (Engine.orecs w) base = line);
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

let test_zero_alloc_line_mate_path () =
  (* Reads of a line-mate of an address the attempt already read are
     proved by one orec load against the logged word — with no
     allocation either.  The measured loop alternates between two other
     words of each line, so no read is forwarded. *)
  let w = Engine.create ~nthreads:1 Config.baseline in
  let th = Engine.setup_thread w in
  let line = Orec.line_words and cells = 64 in
  let base = Alloc.alloc (Engine.global_arena w) (line * cells) in
  check "an array block: one orec per 4-word line" true
    (Orec.line_words_at (Engine.orecs w) base = line);
  let cell k = base + (line * (k land (cells - 1))) in
  let s = Txn.thread_stats th in
  let measure n =
    Txn.atomic th (fun tx ->
        for k = 0 to cells - 1 do
          ignore (Txn.read tx (cell k) : int)
        done;
        minor_delta (fun () ->
            for k = 0 to n - 1 do
              ignore (Txn.read tx (cell k + 1 + ((k / cells) land 1)) : int)
            done))
  in
  (* Warm-up: grows the tx-resident read log and its map. *)
  ignore (measure 8 : float);
  let mates = s.Stats.reads_line_mate and forwarded = s.Stats.reads_forwarded in
  let small = measure 64 and large = measure 512 in
  Alcotest.(check (float 0.)) "line-mate reads allocate nothing" small large;
  check_int "every read was a line-mate" (64 + 512)
    (s.Stats.reads_line_mate - mates);
  check_int "none forwarded" 0 (s.Stats.reads_forwarded - forwarded)

let test_zero_alloc_rfw_path spelling () =
  (* Read-modify-writes through the read-for-write barrier: the first
     word of each 4-word line acquires its orec at the read, the others
     find it owned — with no allocation either.  Under +lazy the writes
     buffer, and the commit acquires nothing more. *)
  let w =
    Engine.create ~nthreads:1 (Result.get_ok (Config.of_string spelling))
  in
  let th = Engine.setup_thread w in
  let span = 2048 in
  let base = Alloc.alloc (Engine.global_arena w) span in
  let site = Captured_core.Site.anonymous_read in
  let touch tx n =
    for k = 0 to n - 1 do
      Txn.write tx (base + k) (Txn.read_for_write_at ~site tx (base + k) + 1)
    done
  in
  (* Warm-up: grows the tx-resident undo and acquisition arrays. *)
  Txn.atomic th (fun tx -> touch tx span);
  let s = Txn.thread_stats th in
  let acquired = s.Stats.rfw_acquires and all = s.Stats.orec_acquires in
  let measure n =
    Txn.atomic th (fun tx -> minor_delta (fun () -> touch tx n))
  in
  let small = measure 64 and large = measure 512 in
  Alcotest.(check (float 0.)) "read-for-write barriers allocate nothing"
    small large;
  check_int "one acquisition per line" ((64 + 512) / Orec.line_words)
    (s.Stats.rfw_acquires - acquired);
  check_int "no other acquisition" (s.Stats.rfw_acquires - acquired)
    (s.Stats.orec_acquires - all)

(* Lazy versioning: a first write inserts a redo entry, the second
   overwrites it in place, and the read between them is answered from
   the buffer (read-own-write). *)
let test_zero_alloc_lazy_buffer spelling () =
  let w =
    Engine.create ~nthreads:1 (Result.get_ok (Config.of_string spelling))
  in
  let th = Engine.setup_thread w in
  let span = 2048 in
  let base = Alloc.alloc (Engine.global_arena w) span in
  (* Warm-up: grows the tx-resident redo log and its map. *)
  Txn.atomic th (fun tx ->
      for k = 0 to span - 1 do
        Txn.write tx (base + k) k
      done);
  let s = Txn.thread_stats th in
  let hits = s.Stats.redo_hits in
  let measure n =
    Txn.atomic th (fun tx ->
        minor_delta (fun () ->
            for k = 0 to n - 1 do
              Txn.write tx (base + k) k;
              Txn.write tx (base + k) (Txn.read tx (base + k) + 1)
            done))
  in
  let small = measure 64 and large = measure 512 in
  Alcotest.(check (float 0.)) "buffered writes allocate nothing" small large;
  check_int "every read was answered from the buffer" (64 + 512)
    (s.Stats.redo_hits - hits)

(* Lazy versioning with capture analysis: stores into a block the
   transaction allocated skip the redo buffer and go straight to
   memory. *)
let test_zero_alloc_lazy_captured () =
  let w =
    Engine.create ~nthreads:1
      (Result.get_ok (Config.of_string "tree+fp+lazy"))
  in
  let th = Engine.setup_thread w in
  let measure n =
    Txn.atomic th (fun tx ->
        let block = Txn.alloc tx 512 in
        minor_delta (fun () ->
            for k = 0 to n - 1 do
              Txn.write tx (block + k) k
            done))
  in
  (* One throwaway round warms the capture-log internals. *)
  ignore (measure 8 : float);
  let s = Txn.thread_stats th in
  let skips = s.Stats.redo_skips in
  let small = measure 64 and large = measure 512 in
  Alcotest.(check (float 0.)) "captured direct stores allocate nothing" small
    large;
  check_int "every store skipped the buffer" (64 + 512)
    (s.Stats.redo_skips - skips)

(* A whole one-thread transaction — begin, [n] full-barrier writes,
   commit — allocates the same few words at every size, and never a
   retry closure, a boxed result, a scope or a log.  The body closure is
   built before the count starts.  A durable commit
   encodes its write set straight into the log's pending buffer, so it
   too allocates the same words at every size: 7 more, the record writer
   and the append's result pair ([Wal.append_commit]).  Its transactions
   allocate no block, whose image the record would copy. *)
let test_commit_words spelling words () =
  let config = Result.get_ok (Config.of_string spelling) in
  let w = Engine.create ~nthreads:1 config in
  if config.Config.durable then Engine.attach_wal w (Wal.create ());
  let th = Engine.setup_thread w in
  let base = Alloc.alloc (Engine.global_arena w) 512 in
  let per_commit n =
    let body tx =
      for k = 0 to n - 1 do
        Txn.write tx (base + k) k
      done
    in
    (* Warm-up: grows the tx-resident logs past [n]. *)
    Txn.atomic th body;
    minor_delta (fun () ->
        for _ = 1 to 100 do
          Txn.atomic th body
        done)
    /. 100.
  in
  let small = per_commit 8 and large = per_commit 512 in
  Alcotest.(check (float 0.)) "minor words per commit, any size" small large;
  Alcotest.(check (float 0.)) "minor words per commit" words small

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
          Alcotest.test_case "long read logs 2 domains" `Quick
            (test_longread_domains 2);
          Alcotest.test_case "long read logs 4 domains" `Quick
            (test_longread_domains 4);
          Alcotest.test_case "first stores 2 domains" `Quick
            (test_first_store_race 2);
          Alcotest.test_case "first stores 4 domains" `Quick
            (test_first_store_race 4);
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
          Alcotest.test_case "read-for-write path" `Quick
            (test_zero_alloc_rfw_path "baseline");
          Alcotest.test_case "read-for-write path baseline+lazy" `Quick
            (test_zero_alloc_rfw_path "baseline+lazy");
          Alcotest.test_case "line-mate read path" `Quick
            test_zero_alloc_line_mate_path;
          Alcotest.test_case "init-only read path" `Quick
            (test_zero_alloc_init_path "baseline");
          Alcotest.test_case "init-only read path tree+fp+lazy" `Quick
            (test_zero_alloc_init_path "tree+fp+lazy");
          Alcotest.test_case "lazy buffer path baseline+lazy" `Quick
            (test_zero_alloc_lazy_buffer "baseline+lazy");
          Alcotest.test_case "lazy buffer path baseline+tv+lazy" `Quick
            (test_zero_alloc_lazy_buffer "baseline+tv+lazy");
          Alcotest.test_case "lazy captured store path" `Quick
            test_zero_alloc_lazy_captured;
          Alcotest.test_case "commit words baseline" `Quick
            (test_commit_words "baseline" 2.);
          Alcotest.test_case "commit words baseline+lazy" `Quick
            (test_commit_words "baseline+lazy" 2.);
          Alcotest.test_case "commit words baseline+wal" `Quick
            (test_commit_words "baseline+wal" 9.);
          Alcotest.test_case "commit words baseline+lazy+wal" `Quick
            (test_commit_words "baseline+lazy+wal" 9.);
        ] );
    ]
