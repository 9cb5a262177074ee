open Captured_stm
module Memory = Captured_tmem.Memory
module Alloc = Captured_tmem.Alloc
module Alloc_log = Captured_core.Alloc_log
module Site = Captured_core.Site

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let all_configs =
  [
    Config.baseline;
    Config.runtime Alloc_log.Tree;
    Config.runtime Alloc_log.Array;
    Config.runtime Alloc_log.Filter;
    Config.compiler;
    Config.audit;
    Config.with_tvalidate Config.baseline;
    Config.with_tvalidate (Config.runtime Alloc_log.Tree);
    Config.with_tvalidate (Config.with_fastpath (Config.runtime Alloc_log.Array));
    (* lazy versioning (deferred update): the same semantics must hold
       when writes are buffered and published at commit *)
    Config.with_lazy Config.baseline;
    Config.with_lazy (Config.runtime Alloc_log.Tree);
    Config.with_lazy (Config.with_fastpath (Config.runtime Alloc_log.Tree));
    Config.with_lazy (Config.with_tvalidate Config.baseline);
    (* the benchmark families: kv's config (epoch-based reclamation) *)
    Config.runtime Alloc_log.Tree |> Config.with_fastpath
    |> Config.with_tvalidate |> Config.with_ebr;
    (* the compiler's shared-site filter, and intruder's narrow scope *)
    Result.get_ok (Config.of_string "tree+sf");
    Config.with_lazy
      (Config.runtime ~scope:Config.heap_write_only_scope Alloc_log.Tree);
  ]

let mk_world ?(nthreads = 1) config = Engine.create ~nthreads config

(* ------------------------------------------------------------------ *)
(* Single-thread basics, across every configuration                    *)

let test_commit_visible cfg =
  let w = mk_world cfg in
  let cell = Alloc.alloc (Engine.global_arena w) 1 in
  let th = Engine.setup_thread w in
  Txn.atomic th (fun tx -> Txn.write tx cell 7);
  check_int (Config.to_string cfg) 7 (Txn.atomic th (fun tx -> Txn.read tx cell))

let test_abort_rolls_back cfg =
  let w = mk_world cfg in
  let cell = Alloc.alloc (Engine.global_arena w) 1 in
  Memory.set (Engine.memory w) cell 10;
  let th = Engine.setup_thread w in
  (try
     Txn.atomic th (fun tx ->
         Txn.write tx cell 99;
         Txn.abort tx)
   with Txn.User_abort -> ());
  check_int (Config.to_string cfg) 10 (Memory.get (Engine.memory w) cell)

let test_exception_rolls_back cfg =
  let w = mk_world cfg in
  let cell = Alloc.alloc (Engine.global_arena w) 1 in
  Memory.set (Engine.memory w) cell 5;
  let th = Engine.setup_thread w in
  (try
     Txn.atomic th (fun tx ->
         Txn.write tx cell 50;
         failwith "boom")
   with Failure _ -> ());
  check_int (Config.to_string cfg) 5 (Memory.get (Engine.memory w) cell)

let test_alloc_commit_keeps cfg =
  let w = mk_world cfg in
  let th = Engine.setup_thread w in
  let arena = Engine.arena_of w 0 in
  let addr =
    Txn.atomic th (fun tx ->
        let a = Txn.alloc tx 8 in
        Txn.write tx a 123;
        a)
  in
  check_int "kept live" 1 (Alloc.live_blocks arena);
  check_int "value" 123 (Memory.get (Engine.memory w) addr)

let test_alloc_abort_frees cfg =
  let w = mk_world cfg in
  let th = Engine.setup_thread w in
  let arena = Engine.arena_of w 0 in
  (try
     Txn.atomic th (fun tx ->
         let a = Txn.alloc tx 8 in
         Txn.write tx a 1;
         Txn.abort tx)
   with Txn.User_abort -> ());
  check_int (Config.to_string cfg) 0 (Alloc.live_blocks arena)

let test_free_deferred_on_abort cfg =
  (* Freeing a pre-existing block inside an aborting transaction must not
     actually free it. *)
  let w = mk_world cfg in
  let th = Engine.setup_thread w in
  let addr = Txn.atomic th (fun tx -> Txn.alloc tx 4) in
  (try
     Txn.atomic th (fun tx ->
         Txn.free tx addr;
         Txn.abort tx)
   with Txn.User_abort -> ());
  (* The block survived: freeing it now must work exactly once.  Under
     +ebr the committed free parks in limbo until a quiescence point
     (a no-op without EBR). *)
  Txn.atomic th (fun tx -> Txn.free tx addr);
  Txn.quiesce th;
  check_int "back to zero" 0 (Alloc.live_blocks (Engine.arena_of w 0))

let test_alloc_then_free_same_txn cfg =
  let w = mk_world cfg in
  let th = Engine.setup_thread w in
  Txn.atomic th (fun tx ->
      let a = Txn.alloc tx 8 in
      Txn.write tx a 1;
      Txn.free tx a);
  check_int (Config.to_string cfg) 0 (Alloc.live_blocks (Engine.arena_of w 0))

(* A block a transaction allocates, writes through the full barrier and
   frees again must leave the free list intact: rolling back (eager
   abort) or publishing (lazy commit) that write used to land on the
   free-list link [Alloc.free] stores in the block's first word, leaking
   a block or handing out address 4242.  [cool] runs first; the fastpath
   case uses it to get [site] bypassed, so the writes below take the full
   barrier even though the block is captured. *)
let free_site = Site.declare ~write:true "stm.test.free_own_block"

let check_free_own_block ?(cool = fun _ _ -> ()) ?(bypassed = 0) cfg =
  let w = mk_world cfg in
  let th = Engine.setup_thread w in
  let arena = Engine.arena_of w 0 in
  let x = Alloc.alloc arena 4 and y = Alloc.alloc arena 4 in
  Alloc.free arena x;
  Alloc.free arena y;
  cool w th;
  let st = Txn.thread_stats th in
  let bypasses0 = st.Stats.capture_site_bypasses in
  let alloc_write_free tx =
    let a = Txn.alloc tx 4 in
    Txn.write_at ~site:free_site tx a 4242;
    Txn.free tx a
  in
  Txn.atomic th alloc_write_free;
  (try
     Txn.atomic th (fun tx ->
         alloc_write_free tx;
         Txn.abort tx)
   with Txn.User_abort -> ());
  check_int "writes took the full barrier" bypassed
    (st.Stats.capture_site_bypasses - bypasses0);
  let got = List.sort compare (List.init 3 (fun _ -> Alloc.alloc arena 4)) in
  check "both freed blocks come back, then a fresh one" true
    (match got with
    | [ b1; b2; fresh ] ->
        [ b1; b2 ] = List.sort compare [ x; y ] && fresh > max x y
    | _ -> false)

let test_free_own_block_baseline () = check_free_own_block Config.baseline

let test_free_own_block_baseline_lazy () =
  check_free_own_block (Config.with_lazy Config.baseline)

let test_free_own_block_bypassed () =
  let cool w th =
    (* One hitless window of first writes to shared cells. *)
    let n = Site_tier.window in
    let cells = Alloc.alloc (Engine.global_arena w) n in
    Txn.atomic th (fun tx ->
        for k = 0 to n - 1 do
          Txn.write_at ~site:free_site tx (cells + k) k
        done)
  in
  check_free_own_block ~cool ~bypassed:2
    (Config.with_lazy (Config.with_fastpath (Config.runtime Alloc_log.Tree)))

let test_alloca_restored_on_abort cfg =
  let w = mk_world cfg in
  let th = Engine.setup_thread w in
  let stack = Captured_tmem.Tstack.sp (Txn.thread_stack th) in
  (try
     Txn.atomic th (fun tx ->
         let a = Txn.alloca tx 16 in
         Txn.write tx a 5;
         Txn.abort tx)
   with Txn.User_abort -> ());
  check_int "sp restored" stack (Captured_tmem.Tstack.sp (Txn.thread_stack th))

let test_read_your_writes cfg =
  let w = mk_world cfg in
  let cell = Alloc.alloc (Engine.global_arena w) 1 in
  let th = Engine.setup_thread w in
  let v =
    Txn.atomic th (fun tx ->
        Txn.write tx cell 41;
        Txn.read tx cell + 1)
  in
  check_int (Config.to_string cfg) 42 v

let test_waw_single_undo cfg =
  let w = mk_world cfg in
  let cell = Alloc.alloc (Engine.global_arena w) 1 in
  Memory.set (Engine.memory w) cell 3;
  let th = Engine.setup_thread w in
  (try
     Txn.atomic th (fun tx ->
         for i = 1 to 10 do
           Txn.write tx cell i
         done;
         Txn.abort tx)
   with Txn.User_abort -> ());
  check_int "rolled back through waw" 3 (Memory.get (Engine.memory w) cell);
  if cfg.Config.analysis = Config.Baseline then
    check "waw hits counted" true ((Txn.thread_stats th).Stats.waw_hits >= 9)

(* ------------------------------------------------------------------ *)
(* Elision counters                                                    *)

let test_runtime_elides_heap () =
  let w = mk_world (Config.runtime Alloc_log.Tree) in
  let th = Engine.setup_thread w in
  Txn.atomic th (fun tx ->
      let a = Txn.alloc tx 8 in
      for i = 0 to 7 do
        Txn.write tx (a + i) i
      done;
      for i = 0 to 7 do
        ignore (Txn.read tx (a + i) : int)
      done);
  let st = Txn.thread_stats th in
  check_int "writes elided" 8 st.Stats.writes_elided_heap;
  check_int "reads elided" 8 st.Stats.reads_elided_heap

let test_runtime_elides_stack () =
  let w = mk_world (Config.runtime Alloc_log.Tree) in
  let th = Engine.setup_thread w in
  Txn.atomic th (fun tx ->
      let a = Txn.alloca tx 4 in
      Txn.write tx a 1;
      ignore (Txn.read tx a : int));
  let st = Txn.thread_stats th in
  check_int "write stack" 1 st.Stats.writes_elided_stack;
  check_int "read stack" 1 st.Stats.reads_elided_stack

let test_runtime_scope_write_only () =
  let w =
    mk_world (Config.runtime ~scope:Config.write_only_scope Alloc_log.Tree)
  in
  let th = Engine.setup_thread w in
  Txn.atomic th (fun tx ->
      let a = Txn.alloc tx 4 in
      Txn.write tx a 1;
      ignore (Txn.read tx a : int));
  let st = Txn.thread_stats th in
  check_int "write elided" 1 st.Stats.writes_elided_heap;
  check_int "read not elided" 0 (Stats.reads_elided st)

let test_baseline_never_elides () =
  let w = mk_world Config.baseline in
  let th = Engine.setup_thread w in
  Txn.atomic th (fun tx ->
      let a = Txn.alloc tx 4 in
      Txn.write tx a 1;
      ignore (Txn.read tx a : int));
  let st = Txn.thread_stats th in
  check_int "no elision" 0 (Stats.reads_elided st + Stats.writes_elided st)

let test_shared_not_elided () =
  let w = mk_world (Config.runtime Alloc_log.Tree) in
  let cell = Alloc.alloc (Engine.global_arena w) 1 in
  let th = Engine.setup_thread w in
  Txn.atomic th (fun tx -> Txn.write tx cell 1);
  let st = Txn.thread_stats th in
  check_int "shared write not elided" 0 (Stats.writes_elided st)

let test_compiler_elides_by_site () =
  Site.reset_verdicts ();
  let s_cap = Site.declare ~manual:false ~write:true "stm.test.captured_write" in
  let s_shared = Site.declare ~manual:true ~write:true "stm.test.shared_write" in
  Site.set_captured s_cap;
  let w = mk_world Config.compiler in
  let cell = Alloc.alloc (Engine.global_arena w) 1 in
  let th = Engine.setup_thread w in
  Txn.atomic th (fun tx ->
      let a = Txn.alloc tx 4 in
      Txn.write_at ~site:s_cap tx a 1;
      Txn.write_at ~site:s_shared tx cell 2);
  let st = Txn.thread_stats th in
  check_int "static elided" 1 st.Stats.writes_elided_static;
  check_int "shared kept" 1 (st.Stats.writes - Stats.writes_elided st);
  Site.reset_verdicts ()

let test_hybrid_skips_checks_on_shared_sites () =
  Site.reset_verdicts ();
  let s_shared =
    Site.declare ~manual:true ~write:true "stm.test.hybrid_shared"
  in
  Site.set_shared s_shared;
  let w = mk_world (Result.get_ok (Config.of_string "tree+sf")) in
  let cell = Alloc.alloc (Engine.global_arena w) 1 in
  let th = Engine.setup_thread w in
  Txn.atomic th (fun tx ->
      (* A captured write still elides... *)
      let a = Txn.alloc tx 4 in
      Txn.write tx a 1;
      (* ...while the statically-shared site takes the full barrier
         without even running the checks (observable as a plain write
         that is not elided). *)
      Txn.write_at ~site:s_shared tx cell 2);
  let st = Txn.thread_stats th in
  check_int "captured still elided" 1 st.Stats.writes_elided_heap;
  check_int "shared site kept" 1 (st.Stats.writes - Stats.writes_elided st);
  check_int "value committed" 2 (Memory.get (Engine.memory w) cell);
  Site.reset_verdicts ()

let test_private_annotation_elides () =
  let w = mk_world Config.baseline in
  let block = Alloc.alloc (Engine.global_arena w) 16 in
  let th = Engine.setup_thread w in
  Txn.add_private_block th ~addr:block ~size:16;
  Txn.atomic th (fun tx ->
      Txn.write tx block 1;
      ignore (Txn.read tx block : int));
  let st = Txn.thread_stats th in
  check_int "private write" 1 st.Stats.writes_elided_private;
  check_int "private read" 1 st.Stats.reads_elided_private;
  Txn.remove_private_block th ~addr:block ~size:16;
  Txn.atomic th (fun tx -> Txn.write tx block 2);
  check_int "after removal" 1 st.Stats.writes_elided_private

let test_audit_classification () =
  Site.reset_verdicts ();
  let s_req = Site.declare ~manual:true ~write:false "stm.test.audit_required" in
  let s_other =
    Site.declare ~manual:false ~write:false "stm.test.audit_other"
  in
  let w = mk_world Config.audit in
  let cell = Alloc.alloc (Engine.global_arena w) 1 in
  let th = Engine.setup_thread w in
  Txn.atomic th (fun tx ->
      let h = Txn.alloc tx 4 in
      let s = Txn.alloca tx 2 in
      ignore (Txn.read tx h : int);
      ignore (Txn.read tx s : int);
      ignore (Txn.read_at ~site:s_req tx cell : int);
      ignore (Txn.read_at ~site:s_other tx cell : int));
  let st = Txn.thread_stats th in
  check_int "heap" 1 st.Stats.audit_reads_heap;
  check_int "stack" 1 st.Stats.audit_reads_stack;
  check_int "required" 1 st.Stats.audit_reads_required;
  check_int "other" 1 st.Stats.audit_reads_other

(* Each nested scope answers the audit's heap question from its own
   allocations (paper §2.2.1): the child does not count the parent's
   block, counts its own, and once the child commits the parent counts
   the child's block too.  The site is declared but not manual, so a
   read that is neither heap nor stack counts as "other". *)
let audit_nested_site =
  Site.declare ~manual:false ~write:false "stm.test.audit_nested"

let test_audit_nested_scopes () =
  let w = mk_world Config.audit in
  let th = Engine.setup_thread w in
  let st = Txn.thread_stats th in
  let read tx a = ignore (Txn.read_at ~site:audit_nested_site tx a : int) in
  Txn.atomic th (fun tx ->
      let outer = Txn.alloc tx 4 in
      let inner =
        Txn.atomic th (fun tx' ->
            read tx' outer;
            check_int "child: parent's block is not heap" 0
              st.Stats.audit_reads_heap;
            check_int "child: parent's block is other" 1
              st.Stats.audit_reads_other;
            let inner = Txn.alloc tx' 4 in
            read tx' inner;
            check_int "child: own block is heap" 1 st.Stats.audit_reads_heap;
            inner)
      in
      read tx inner;
      check_int "parent: committed child's block is heap" 2
        st.Stats.audit_reads_heap;
      read tx outer;
      check_int "parent: own block is heap" 3 st.Stats.audit_reads_heap);
  check_int "other" 1 st.Stats.audit_reads_other;
  check_int "required" 0 st.Stats.audit_reads_required;
  check_int "stack" 0 st.Stats.audit_reads_stack

(* ------------------------------------------------------------------ *)
(* Nesting                                                             *)

let test_nested_commit () =
  let w = mk_world Config.baseline in
  let cell = Alloc.alloc (Engine.global_arena w) 1 in
  let th = Engine.setup_thread w in
  Txn.atomic th (fun tx ->
      Txn.write tx cell 1;
      Txn.atomic th (fun tx' -> Txn.write tx' cell 2));
  check_int "inner commit" 2 (Memory.get (Engine.memory w) cell)

let test_nested_partial_abort () =
  let w = mk_world Config.baseline in
  let a = Alloc.alloc (Engine.global_arena w) 1 in
  let b = Alloc.alloc (Engine.global_arena w) 1 in
  let th = Engine.setup_thread w in
  Txn.atomic th (fun tx ->
      Txn.write tx a 1;
      (try
         Txn.atomic th (fun tx' ->
             Txn.write tx' b 99;
             Txn.abort tx')
       with Txn.User_abort -> ());
      Txn.write tx b 2);
  let m = Engine.memory w in
  check_int "outer survived" 1 (Memory.get m a);
  check_int "inner rolled back, then outer wrote" 2 (Memory.get m b)

let test_nested_abort_frees_child_allocs () =
  let w = mk_world Config.baseline in
  let th = Engine.setup_thread w in
  Txn.atomic th (fun tx ->
      let _outer = Txn.alloc tx 4 in
      try
        Txn.atomic th (fun tx' ->
            let _inner = Txn.alloc tx' 4 in
            Txn.abort tx')
      with Txn.User_abort -> ());
  check_int "only outer kept" 1 (Alloc.live_blocks (Engine.arena_of w 0))

let test_nested_capture_relative_to_innermost () =
  (* Memory captured by the OUTER transaction is not captured for the
     nested child (paper §2.2.1): the child's write must be undo-logged so
     partial abort restores it. *)
  let w = mk_world (Config.runtime Alloc_log.Tree) in
  let th = Engine.setup_thread w in
  Txn.atomic th (fun tx ->
      let a = Txn.alloc tx 4 in
      Txn.write tx a 10;
      (* elided: captured by outer *)
      (try
         Txn.atomic th (fun tx' ->
             Txn.write tx' a 99;
             (* must NOT be elided *)
             Txn.abort tx')
       with Txn.User_abort -> ());
      check_int "partial abort restored outer-local value" 10
        (Txn.read tx a));
  let st = Txn.thread_stats th in
  check_int "exactly one elided write (the outer one)" 1
    st.Stats.writes_elided_heap

let test_nested_child_alloc_captured_in_child () =
  let w = mk_world (Config.runtime Alloc_log.Tree) in
  let th = Engine.setup_thread w in
  Txn.atomic th (fun tx ->
      ignore tx;
      Txn.atomic th (fun tx' ->
          let a = Txn.alloc tx' 4 in
          Txn.write tx' a 1));
  let st = Txn.thread_stats th in
  check_int "child's own alloc elided" 1 st.Stats.writes_elided_heap

(* Runs [f] as a nested scope and aborts it when [abort]. *)
let nested th ~abort f =
  try
    Txn.atomic th (fun tx ->
        f tx;
        if abort then Txn.abort tx)
  with Txn.User_abort -> ()

(* Nested scopes over the one write set, on both engines (every write
   takes the full barrier: no capture analysis).  Whether a rewrite needs
   a journal entry is decided per scope, exactly: an outer entry is
   journalled once per scope that rewrites it, a committed child's
   journal serves its parent, and an aborted child's leaves no trace. *)
let test_nested_waw_partial_abort cfg =
  let w = mk_world cfg in
  let arena = Engine.global_arena w and m = Engine.memory w in
  let cell = Alloc.alloc arena 1 and other = Alloc.alloc arena 1 in
  Memory.set m cell 5;
  Memory.set m other 50;
  let th = Engine.setup_thread w in
  let st = Txn.thread_stats th in
  (* The outer scope logs [cell]; the child must still journal it, or
     partial abort cannot restore the outer value. *)
  Txn.atomic th (fun tx ->
      Txn.write tx cell 10;
      nested th ~abort:true (fun tx' -> Txn.write tx' cell 99);
      check_int "partial abort restored the outer value" 10
        (Txn.read tx cell));
  check_int "final" 10 (Memory.get m cell);
  (* Sibling scopes rewrite the same outer address inside a nested
     parent.  The first sibling's abort must leave the entry unjournalled
     by the parent, so the parent's own rewrite journals it; the
     committed sibling's journal then serves the parent's abort. *)
  Txn.atomic th (fun tx ->
      Txn.write tx cell 1;
      nested th ~abort:true (fun tx' ->
          nested th ~abort:true (fun tx'' -> Txn.write tx'' cell 2);
          Txn.write tx' cell 3;
          nested th ~abort:false (fun tx'' -> Txn.write tx'' cell 4);
          nested th ~abort:true (fun tx'' -> Txn.write tx'' cell 6);
          check_int "aborted sibling restored the committed one's value" 4
            (Txn.read tx' cell));
      check_int "parent abort restored the outer value" 1 (Txn.read tx cell));
  check_int "siblings: final" 1 (Memory.get m cell);
  (* A parent rewrite after a child commits: the child journalled the
     parent's entry and inserted [other]; neither rewrite by the parent
     takes a new entry (nor does a scope's rewrite of its own entry),
     and the parent's abort restores both. *)
  Txn.atomic th (fun tx ->
      Txn.write tx cell 7;
      nested th ~abort:true (fun tx' ->
          Txn.write tx' cell 8;
          let entries = st.Stats.undo_entries in
          Txn.write tx' cell 8;
          check_int "own rewrite takes no entry" entries st.Stats.undo_entries;
          nested th ~abort:false (fun tx'' ->
              Txn.write tx'' cell 9;
              Txn.write tx'' other 51);
          let entries = st.Stats.undo_entries in
          Txn.write tx' cell 11;
          Txn.write tx' other 52;
          check_int "parent rewrites take no entry" entries
            st.Stats.undo_entries);
      check_int "cell restored" 7 (Txn.read tx cell);
      check_int "other restored" 50 (Txn.read tx other));
  check_int "child commit: cell" 7 (Memory.get m cell);
  check_int "child commit: other" 50 (Memory.get m other);
  (* A grandchild journals an entry the child inserted, then commits;
     the child's abort replays that journal before it restores (or
     drops) its own inserts. *)
  Txn.atomic th (fun tx ->
      nested th ~abort:true (fun tx' ->
          Txn.write tx' other 60;
          nested th ~abort:false (fun tx'' -> Txn.write tx'' other 61));
      check_int "grandchild journal replayed first" 50 (Txn.read tx other));
  check_int "grandchild: final" 50 (Memory.get m other);
  (* A child rewrites a block its parent allocated; the parent frees the
     block, then aborts.  The block's entries, the child's journal entry
     included, must not be replayed over the free-list link the free
     stored in its first word. *)
  let sentinel = 777 in
  Txn.atomic th (fun tx ->
      nested th ~abort:true (fun tx' ->
          let b = Txn.alloc tx' 4 in
          Txn.write tx' b sentinel;
          nested th ~abort:false (fun tx'' ->
              Txn.write tx'' b 12;
              Txn.write tx'' cell 13);
          Txn.free tx' b);
      check_int "freed block: cell restored" 7 (Txn.read tx cell);
      let x = Txn.alloc tx 4 in
      let y = Txn.alloc tx 4 in
      check "free list intact" true (x <> sentinel && y <> sentinel))

let test_nested_commit_merges_capture () =
  (* After the child commits, its allocations belong to the parent and are
     captured for the parent's subsequent accesses. *)
  let w = mk_world (Config.runtime Alloc_log.Tree) in
  let th = Engine.setup_thread w in
  Txn.atomic th (fun tx ->
      let a = Txn.atomic th (fun tx' -> Txn.alloc tx' 4) in
      Txn.write tx a 5);
  let st = Txn.thread_stats th in
  check_int "merged capture" 1 st.Stats.writes_elided_heap

(* ------------------------------------------------------------------ *)
(* Concurrency (simulated)                                             *)

let test_sim_counter_atomicity cfg =
  let w = mk_world ~nthreads:8 cfg in
  let counter = Alloc.alloc (Engine.global_arena w) 1 in
  let incs = 50 in
  let result =
    Engine.run_sim w (fun th ->
        for _ = 1 to incs do
          Txn.atomic th (fun tx -> Txn.write tx counter (Txn.read tx counter + 1))
        done)
  in
  check_int (Config.to_string cfg) (8 * incs) (Memory.get (Engine.memory w) counter);
  check_int "commits" (8 * incs) result.Engine.stats.Stats.commits

let test_sim_bank_conservation cfg =
  let naccounts = 32 and nthreads = 8 and transfers = 120 in
  let w = mk_world ~nthreads cfg in
  let accounts = Alloc.alloc (Engine.global_arena w) naccounts in
  let m = Engine.memory w in
  for i = 0 to naccounts - 1 do
    Memory.set m (accounts + i) 100
  done;
  let _ =
    Engine.run_sim w (fun th ->
        let g = Txn.thread_prng th in
        for _ = 1 to transfers do
          let src = Captured_util.Prng.int g naccounts in
          let dst = Captured_util.Prng.int g naccounts in
          Txn.atomic th (fun tx ->
              let s = Txn.read tx (accounts + src) in
              if s > 0 then begin
                Txn.write tx (accounts + src) (s - 1);
                Txn.write tx (accounts + dst) (Txn.read tx (accounts + dst) + 1)
              end)
        done)
  in
  let total = ref 0 in
  for i = 0 to naccounts - 1 do
    total := !total + Memory.get m (accounts + i)
  done;
  check_int (Config.to_string cfg) (100 * naccounts) !total

let test_sim_deterministic () =
  let run () =
    let w = mk_world ~nthreads:4 Config.baseline in
    let cell = Alloc.alloc (Engine.global_arena w) 1 in
    let r =
      Engine.run_sim ~seed:7 w (fun th ->
          for _ = 1 to 100 do
            Txn.atomic th (fun tx -> Txn.write tx cell (Txn.read tx cell + 1))
          done)
    in
    (r.Engine.makespan, r.Engine.stats.Stats.aborts)
  in
  check "bit-identical reruns" true (run () = run ())

let test_sim_conflicting_allocs_capture () =
  (* Threads allocating and initialising private nodes then publishing one
     shared pointer: elision-heavy and conflict-light. *)
  let w = mk_world ~nthreads:4 (Config.runtime Alloc_log.Tree) in
  let head = Alloc.alloc (Engine.global_arena w) 1 in
  let r =
    Engine.run_sim w (fun th ->
        for _ = 1 to 40 do
          Txn.atomic th (fun tx ->
              let node = Txn.alloc tx 2 in
              Txn.write tx node (Txn.thread_id th);
              Txn.write tx (node + 1) (Txn.read tx head);
              Txn.write tx head node)
        done)
  in
  (* Walk the list non-transactionally: 160 nodes. *)
  let m = Engine.memory w in
  let rec len p acc = if p = 0 then acc else len (Memory.get m (p + 1)) (acc + 1) in
  check_int "list complete" 160 (len (Memory.get m head) 0);
  (* Retried attempts also elide, so the count is at least two per
     committed transaction. *)
  check "two elided writes per commit" true
    (r.Engine.stats.Stats.writes_elided_heap >= 2 * 160)

let test_native_single_thread () =
  let w = mk_world Config.baseline in
  let cell = Alloc.alloc (Engine.global_arena w) 1 in
  let r =
    Engine.run_native w (fun th ->
        for _ = 1 to 1000 do
          Txn.atomic th (fun tx -> Txn.write tx cell (Txn.read tx cell + 1))
        done)
  in
  check_int "native result" 1000 (Memory.get (Engine.memory w) cell);
  check "wall measured" true (r.Engine.wall >= 0.)

let test_native_two_domains () =
  let w = mk_world ~nthreads:2 Config.baseline in
  let cell = Alloc.alloc (Engine.global_arena w) 1 in
  let _ =
    Engine.run_native w (fun th ->
        for _ = 1 to 500 do
          Txn.atomic th (fun tx -> Txn.write tx cell (Txn.read tx cell + 1))
        done)
  in
  check_int "domain atomicity" 1000 (Memory.get (Engine.memory w) cell)

(* ------------------------------------------------------------------ *)
(* Timestamp-based validation (Config.tvalidate)                       *)

let tv_cfg = Config.with_tvalidate Config.baseline

(* A read-only transaction must commit with zero validation scans and no
   clock bump — the acceptance criterion for the read-only fast path. *)
let test_tv_readonly_fast_commit () =
  let w = mk_world tv_cfg in
  let cell = Alloc.alloc (Engine.global_arena w) 1 in
  Memory.set (Engine.memory w) cell 3;
  let th = Engine.setup_thread w in
  check_int "read" 3 (Txn.atomic th (fun tx -> Txn.read tx cell));
  let s = Txn.thread_stats th in
  check_int "no validation scans" 0 s.Stats.validations;
  check_int "one ro fast commit" 1 s.Stats.readonly_fast_commits;
  check_int "no clock advance" 0 s.Stats.clock_advances;
  check_int "clock untouched" 0 (Engine.clock w)

(* An uncontended writer advances the clock once and replaces the commit
   scan with the O(1) snapshot-currency compare. *)
let test_tv_writer_skips_scan () =
  let w = mk_world tv_cfg in
  let cell = Alloc.alloc (Engine.global_arena w) 1 in
  let th = Engine.setup_thread w in
  Txn.atomic th (fun tx ->
      ignore (Txn.read tx cell : int);
      Txn.write tx cell 9);
  let s = Txn.thread_stats th in
  check_int "no validation scans" 0 s.Stats.validations;
  check "scan skipped" true (s.Stats.validations_skipped >= 1);
  check_int "one clock advance" 1 s.Stats.clock_advances;
  check_int "clock is 1" 1 (Engine.clock w);
  check_int "no ro fast commit" 0 s.Stats.readonly_fast_commits;
  (* A second writer sees its own commit's stamp <= its snapshot. *)
  Txn.atomic th (fun tx -> Txn.write tx cell (Txn.read tx cell + 1));
  check_int "still no scans" 0 (Txn.thread_stats th).Stats.validations;
  check_int "value" 10 (Memory.get (Engine.memory w) cell)

(* Two simulated threads: the reader observes a version newer than its
   snapshot mid-transaction and must extend (one full validation) rather
   than abort — its other read is untouched, so the extension succeeds. *)
let test_tv_snapshot_extension () =
  let w = mk_world ~nthreads:2 tv_cfg in
  let c0 = Alloc.alloc (Engine.global_arena w) 64 in
  let c1 = Alloc.alloc (Engine.global_arena w) 64 in
  let r =
    Engine.run_sim ~seed:1 w (fun th ->
        if Txn.thread_id th = 0 then
          Txn.atomic th (fun tx ->
              ignore (Txn.read tx c0 : int);
              (* Long enough that thread 1 commits its write meanwhile. *)
              Txn.tx_work tx 200_000;
              ignore (Txn.read tx c1 : int))
        else
          Txn.atomic th (fun tx -> Txn.write tx c1 5))
  in
  let s = r.Engine.stats in
  check "extension happened" true (s.Stats.snapshot_extensions >= 1);
  check_int "both committed" 2 s.Stats.commits;
  check_int "no conflict aborts" 0 s.Stats.aborts;
  check_int "written value" 5 (Memory.get (Engine.memory w) c1)

(* ------------------------------------------------------------------ *)
(* Read-for-write                                                       *)

let rfw tx addr = Txn.read_for_write_at ~site:Site.anonymous_read tx addr

(* One increment of [cell] on one simulated thread: its stats and
   makespan.  [read] is the barrier the increment reads through. *)
let sim_increment cfg ~read =
  let w = mk_world cfg in
  let cell = Alloc.alloc (Engine.global_arena w) 1 in
  Memory.set (Engine.memory w) cell 41;
  let r =
    Engine.run_sim ~seed:1 w (fun th ->
        Txn.atomic th (fun tx -> Txn.write tx cell (read tx cell + 1)))
  in
  check_int "incremented" 42 (Memory.get (Engine.memory w) cell);
  r

(* The read acquires the orec and logs nothing: no validation or commit
   cost for it, and the write finds the orec owned.  The saving is the
   read barrier, its commit and validation share, less the owned write's
   price. *)
let test_rfw_acquires_once () =
  let plain = sim_increment Config.baseline ~read:Txn.read in
  let r = sim_increment Config.baseline ~read:rfw in
  let s = r.Engine.stats in
  check_int "one rfw acquisition" 1 s.Stats.rfw_acquires;
  check_int "one acquisition in all" 1 s.Stats.orec_acquires;
  check_int "still counted as a read" 1 s.Stats.reads;
  check_int "nothing to validate" 0 s.Stats.validation_cycles;
  check "the plain read was validated" true
    (plain.Engine.stats.Stats.validation_cycles > 0);
  check_int "makespan saved"
    (Costs.read_barrier + Costs.commit_per_read + Costs.validate_per_read
    - Costs.write_barrier_owned)
    (plain.Engine.makespan - r.Engine.makespan)

(* An orec the attempt already read is not acquired at the read: the
   read-for-write is forwarded from the read log, and the write
   acquires. *)
let test_rfw_logged_forwards () =
  let w = mk_world Config.baseline in
  let cell = Alloc.alloc (Engine.global_arena w) 1 in
  Memory.set (Engine.memory w) cell 7;
  let th = Engine.setup_thread w in
  let v =
    Txn.atomic th (fun tx ->
        let x = Txn.read tx cell in
        let y = rfw tx cell in
        Txn.write tx cell (y + 1);
        x + y)
  in
  let s = Txn.thread_stats th in
  check_int "both reads saw 7" 14 v;
  check_int "forwarded" 1 s.Stats.reads_forwarded;
  check_int "no rfw acquisition" 0 s.Stats.rfw_acquires;
  check_int "the write acquired" 1 s.Stats.orec_acquires;
  check_int "stored" 8 (Memory.get (Engine.memory w) cell)

(* Under +lazy a read-for-write acquires at the read too, and the
   buffered write's commit-time acquisition then finds the orec owned.
   Against a plain read the increment trades the read barrier and the
   commit-time acquisition for the encounter-time one; under Scan it
   also logs no read, so the commit charges no read and validation
   scans none.  Under Global both reads pay the same snapshot check and
   the one-thread commit skips its scan either way. *)
let test_rfw_lazy_acquires () =
  List.iter
    (fun (cfg, scan) ->
      let name = Config.to_string cfg in
      let plain = sim_increment cfg ~read:Txn.read in
      let r = sim_increment cfg ~read:rfw in
      let s = r.Engine.stats in
      check_int (name ^ ": one rfw acquisition") 1 s.Stats.rfw_acquires;
      check_int (name ^ ": one acquisition in all") 1 s.Stats.orec_acquires;
      check_int (name ^ ": the write still buffers") 1 s.Stats.redo_inserts;
      let unlogged =
        if scan then Costs.commit_per_read + Costs.validate_per_read else 0
      in
      check_int (name ^ ": makespan saved")
        (Costs.read_barrier + Costs.commit_acquire
        - Costs.write_barrier_acquire + unlogged)
        (plain.Engine.makespan - r.Engine.makespan))
    (let tree = Config.runtime Alloc_log.Tree in
     [
       (Config.with_lazy tree, true);
       (Config.with_lazy (Config.with_tvalidate tree), false);
     ])

(* Under the Global clock a read-for-write that replaces a version newer
   than the snapshot extends it.  Thread 0 reads [c0], waits while
   thread 1 commits, then adds [c0] to [c1] through a read-for-write.
   When thread 1 wrote only [c1] the extension validates and the attempt
   commits; when it also wrote [c0] the read set fails, the attempt
   aborts and its retry sums the new values. *)
let run_rfw_extension ~peer_writes_c0 =
  let w = mk_world ~nthreads:2 tv_cfg in
  let c0 = Alloc.alloc (Engine.global_arena w) 1 in
  let c1 = Alloc.alloc (Engine.global_arena w) 1 in
  let r =
    Engine.run_sim ~seed:1 w (fun th ->
        if Txn.thread_id th = 0 then
          Txn.atomic th (fun tx ->
              let x = Txn.read tx c0 in
              Txn.tx_work tx 200_000;
              Txn.write tx c1 (x + rfw tx c1))
        else
          Txn.atomic th (fun tx ->
              if peer_writes_c0 then Txn.write tx c0 5;
              Txn.write tx c1 5))
  in
  (r.Engine.stats, Memory.get (Engine.memory w) c1)

let test_rfw_tv_extends () =
  let s, c1 = run_rfw_extension ~peer_writes_c0:false in
  check_int "extended" 1 s.Stats.snapshot_extensions;
  check_int "no abort" 0 s.Stats.aborts;
  check_int "one rfw acquisition" 1 s.Stats.rfw_acquires;
  check_int "c1 = 0 + 5" 5 c1

let test_rfw_tv_invalid_aborts () =
  let s, c1 = run_rfw_extension ~peer_writes_c0:true in
  check_int "extended" 1 s.Stats.snapshot_extensions;
  check_int "the stale read aborted the attempt" 1 s.Stats.aborts;
  check_int "c1 = 5 + 5" 10 c1

(* ------------------------------------------------------------------ *)
(* Value-checked validation: a moved orec over an unchanged word        *)

(* Thread 0 reads [reads] (addresses of one conflict-detection line),
   waits long enough for thread 1 to commit [5] to [target], then
   writes its sum to a cell on another line, so commit-time validation
   runs under both clocks. *)
let run_linemate cfg ~reads ~target =
  let w = mk_world ~nthreads:2 cfg in
  let line = Orec.line_words in
  let block = Alloc.alloc (Engine.global_arena w) (4 * line) in
  let base = (block + line - 1) land lnot (line - 1) in
  let out = base + (2 * line) in
  let orecs = Engine.orecs w in
  check "one orec under the line" true
    (List.for_all
       (fun k -> Orec.index_of orecs (base + k) = Orec.index_of orecs base)
       (List.init line Fun.id));
  check "the output on its own orec" true
    (Orec.index_of orecs out <> Orec.index_of orecs base);
  let r =
    Engine.run_sim ~seed:1 w (fun th ->
        if Txn.thread_id th = 0 then
          Txn.atomic th (fun tx ->
              let sum =
                List.fold_left
                  (fun acc k -> acc + Txn.read tx (base + k))
                  0 reads
              in
              Txn.tx_work tx 200_000;
              Txn.write tx out sum)
        else Txn.atomic th (fun tx -> Txn.write tx (base + target) 5))
  in
  (r.Engine.stats, Memory.get (Engine.memory w) out)

let linemate_configs =
  [
    Config.baseline;
    tv_cfg;
    Config.with_lazy Config.baseline;
    Config.with_lazy tv_cfg;
  ]

(* A commit to a line-mate moves the orec under the read, but not the
   word read: validation adopts the new orec word and the attempt
   commits. *)
let test_linemate_commit_rescued () =
  List.iter
    (fun cfg ->
      let name = Config.to_string cfg in
      let s, out = run_linemate cfg ~reads:[ 0 ] ~target:1 in
      check_int (name ^ ": both committed") 2 s.Stats.commits;
      check_int (name ^ ": no abort") 0 s.Stats.aborts;
      check_int (name ^ ": one rescue") 1 s.Stats.value_rescues;
      check_int (name ^ ": the old word") 0 out)
    linemate_configs

(* A commit to the word read is a true conflict: no rescue, the attempt
   aborts and its retry reads the new value. *)
let test_same_word_commit_aborts () =
  List.iter
    (fun cfg ->
      let name = Config.to_string cfg in
      let s, out = run_linemate cfg ~reads:[ 0 ] ~target:0 in
      check_int (name ^ ": both committed") 2 s.Stats.commits;
      check_int (name ^ ": one abort") 1 s.Stats.aborts;
      check_int (name ^ ": no rescue") 0 s.Stats.value_rescues;
      check_int (name ^ ": the retry saw the commit") 5 out)
    linemate_configs

(* Two words read under one orec: the log keeps one (address, value)
   pair per orec, so it cannot tell which word the commit changed, and
   the entry is not rescued even though neither word moved. *)
let test_two_words_not_rescued () =
  List.iter
    (fun cfg ->
      let name = Config.to_string cfg in
      let s, out = run_linemate cfg ~reads:[ 0; 2 ] ~target:1 in
      check_int (name ^ ": both committed") 2 s.Stats.commits;
      check_int (name ^ ": one abort") 1 s.Stats.aborts;
      check_int (name ^ ": no rescue") 0 s.Stats.value_rescues;
      check_int (name ^ ": sum of unchanged words") 0 out)
    linemate_configs

(* ------------------------------------------------------------------ *)
(* Line-mate reads and the abort word                                   *)

(* A read under an orec already in the read log, at an address the
   entry does not name, is proved by one orec load against the logged
   word: counted as a line-mate read, priced as an owned read, and the
   entry's forwarding pair moves to it (a re-read of it is forwarded). *)
let test_line_mate_read () =
  List.iter
    (fun cfg ->
      let name = Config.to_string cfg in
      let w = mk_world cfg in
      let line = Orec.line_words in
      let block = Alloc.alloc (Engine.global_arena w) (4 * line) in
      let base = (block + line - 1) land lnot (line - 1) in
      for k = 0 to line - 1 do
        Memory.set (Engine.memory w) (base + k) (10 * (k + 1))
      done;
      let th = Engine.setup_thread w in
      let s = Txn.thread_stats th in
      let sum =
        Txn.atomic th (fun tx ->
            let a = Txn.read tx base in
            let b = Txn.read tx (base + 1) in
            let b' = Txn.read tx (base + 1) in
            let c = Txn.read tx (base + 2) in
            a + b + b' + c)
      in
      check_int (name ^ ": values") (10 + 20 + 20 + 30) sum;
      check_int (name ^ ": two line-mate reads") 2 s.Stats.reads_line_mate;
      check_int (name ^ ": the re-read forwarded") 1 s.Stats.reads_forwarded)
    linemate_configs

(* A line-mate read whose orec moved since it was logged takes the full
   barrier, which aborts the attempt as a re-read of a moved orec
   always did; the retry's line-mate read finds its own logged word. *)
let test_line_mate_moved_orec () =
  List.iter
    (fun cfg ->
      let name = Config.to_string cfg in
      let w = mk_world ~nthreads:2 cfg in
      let line = Orec.line_words in
      let block = Alloc.alloc (Engine.global_arena w) (4 * line) in
      let base = (block + line - 1) land lnot (line - 1) in
      let out = base + (2 * line) in
      let r =
        Engine.run_sim ~seed:1 w (fun th ->
            if Txn.thread_id th = 0 then
              Txn.atomic th (fun tx ->
                  let a = Txn.read tx base in
                  Txn.tx_work tx 200_000;
                  Txn.write tx out (a + Txn.read tx (base + 2)))
            else Txn.atomic th (fun tx -> Txn.write tx (base + 1) 5))
      in
      let s = r.Engine.stats in
      check_int (name ^ ": both committed") 2 s.Stats.commits;
      check_int (name ^ ": the moved orec aborted the attempt") 1
        s.Stats.aborts;
      check_int (name ^ ": the retry's line-mate read") 1
        s.Stats.reads_line_mate;
      check_int (name ^ ": unchanged words") 0 (Memory.get (Engine.memory w) out))
    linemate_configs

(* At one thread no orec moves under a logged read, so every line-mate
   read takes the one-load path and nothing else changes: the makespan
   falls by exactly [read_barrier - read_owned] cycles per line-mate
   read.  The third figure is the run's makespan when each of those
   reads took the full barrier instead (measured in a copy with the path
   off), so these rows are kept by hand rather than in the recorded
   bench output.  The rows cover grid reads (labyrinth), the lazy engine
   (bayes) and an allocation-heavy app under the fast path and epoch
   reclamation (yada). *)
let line_mate_refs =
  [
    ("labyrinth", "tree", 57_401);
    ("bayes", "tree+scope:hw+lazy+tv", 105_152);
    ("yada", "tree+fp+ebr", 14_583);
  ]

let test_line_mate_identity () =
  List.iter
    (fun (app, spelling, full_barrier_makespan) ->
      let app = Option.get (Captured_apps.Registry.find app) in
      let cfg = Result.get_ok (Config.of_string spelling) in
      let r =
        Captured_apps.App.run app ~nthreads:1 ~scale:Captured_apps.App.Test
          ~mode:(`Sim 1) cfg
      in
      let mates = r.Engine.stats.Stats.reads_line_mate in
      let name = app.Captured_apps.App.name ^ " " ^ spelling in
      check (name ^ ": line-mate reads ran") true (mates > 0);
      check_int (name ^ ": makespan change = -16 x line-mate reads")
        (full_barrier_makespan
        - ((Costs.read_barrier - Costs.read_owned) * mates))
        r.Engine.makespan)
    line_mate_refs

let orec_word w addr =
  let orecs = Engine.orecs w in
  Orec.get orecs (Orec.index_of orecs addr)

(* An eager attempt that stored in place and aborts releases each orec
   with a word it never held, so a reader that loaded the uncommitted
   value between two loads of the orec cannot find its logged word on
   the far side.  Under Scan that is the old version + 1; under Global a
   freshly advanced clock value, one [clock_advances] more.  [wrote th
   tx cell] runs inside the aborting attempt. *)
let check_abort_word ~fresh cfg ~wrote label =
  let name = Config.to_string cfg ^ " " ^ label in
  let w = mk_world cfg in
  let cell = Alloc.alloc (Engine.global_arena w) 1 in
  let th = Engine.setup_thread w in
  Txn.atomic th (fun tx -> Txn.write tx cell 1);
  let orecs = Engine.orecs w and s = Txn.thread_stats th in
  let before = orec_word w cell
  and clock = Orec.clock orecs
  and advances = s.Stats.clock_advances in
  (try
     Txn.atomic th (fun tx ->
         wrote th tx cell;
         Txn.abort tx)
   with Txn.User_abort -> ());
  let after = orec_word w cell in
  check_int (name ^ ": rolled back") 1 (Memory.get (Engine.memory w) cell);
  check (name ^ ": released") false (Orec.is_locked after);
  let tv = cfg.Config.tvalidate in
  let expect =
    if not fresh then before
    else if tv then Orec.stamped ~ts:(clock + 1)
    else Orec.bumped before
  in
  check_int (name ^ ": abort word") expect after;
  check_int (name ^ ": clock advances")
    (if fresh && tv then 1 else 0)
    (s.Stats.clock_advances - advances);
  check_int (name ^ ": clock") (if fresh && tv then clock + 1 else clock)
    (Orec.clock orecs)

let test_abort_word () =
  let store _ tx cell = Txn.write tx cell 666 in
  let rfw_only _ tx cell = ignore (rfw tx cell : int) in
  let nested th _ cell =
    (* A child's in-place store, undone by its partial abort while the
       orec stays held: the top-level abort must still hand out a fresh
       word. *)
    try
      Txn.atomic th (fun tx ->
          store th tx cell;
          Txn.abort tx)
    with Txn.User_abort -> ()
  in
  List.iter
    (fun cfg ->
      check_abort_word ~fresh:true cfg ~wrote:store "in-place store";
      check_abort_word ~fresh:true cfg ~wrote:nested "nested store";
      check_abort_word ~fresh:false cfg ~wrote:rfw_only "acquired, no store")
    [ Config.baseline; tv_cfg ];
  List.iter
    (fun cfg -> check_abort_word ~fresh:false cfg ~wrote:store "buffered store")
    [ Config.with_lazy Config.baseline; Config.with_lazy tv_cfg ]

(* Model-level agreement with the full read-set-scan reference, on
   randomized orec histories.  The replayed reader applies exactly the
   runtime's TS rule — accept a fresh read outright when its version is
   <= start_ts, otherwise sample the clock and full-scan (snapshot
   extension), aborting on failure.  The reference invariant: after every
   accepted read, a full scan evaluated AT THE SNAPSHOT INSTANT passes,
   i.e. each logged orec's version at time start_ts equals the logged
   version.  (The scan "now" may legitimately fail for a read-only
   snapshot — TL2 serializes at start_ts — which is why the reference is
   indexed by time; a TS accept that this scan rejects would be a
   consistency admission the reference forbids.) *)
let prop_tvalidate_model =
  QCheck.Test.make ~name:"tvalidate model vs full-scan reference" ~count:300
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let module P = Captured_util.Prng in
      let g = P.create seed in
      let n_orecs = 6 in
      (* Per-orec stamp history, newest first: the clock values writers
         stamped the record with (the real runtime keeps only the newest;
         the model keeps them all so it can answer "version at time t"). *)
      let hist = Array.make n_orecs [] in
      let clock = ref 0 in
      let version_at o t =
        match List.find_opt (fun s -> s <= t) hist.(o) with
        | Some s -> s
        | None -> 0
      in
      (* Route the current version through the real orec word encoding so
         the model exercises the same stamped/version_of roundtrip the
         runtime relies on. *)
      let version_now o =
        let v = match hist.(o) with s :: _ -> s | [] -> 0 in
        Orec.version_of (Orec.stamped ~ts:v)
      in
      let start_ts = ref 0 in
      let read_set = ref [] in
      let ok = ref true in
      let scan_at t =
        List.for_all (fun (o, v) -> version_at o t = v) !read_set
      in
      let scan_now () =
        List.for_all (fun (o, v) -> version_now o = v) !read_set
      in
      let log o v =
        if not (List.mem_assoc o !read_set) then read_set := (o, v) :: !read_set
      in
      for _ = 1 to 80 do
        if P.chance g ~percent:40 then begin
          (* A writer commits: fetch-and-add the clock, stamp the orec. *)
          let o = P.int g n_orecs in
          incr clock;
          hist.(o) <- !clock :: hist.(o)
        end
        else begin
          (* The reader reads: apply the TS rule. *)
          let o = P.int g n_orecs in
          let v = version_now o in
          if v <= !start_ts then begin
            (* O(1) accept, no revalidation. *)
            log o v;
            if not (scan_at !start_ts) then ok := false
          end
          else begin
            (* Snapshot extension: sample, then full-scan. *)
            let now = !clock in
            if scan_now () then begin
              start_ts := now;
              log o v;
              if not (scan_at !start_ts) then ok := false
            end
            else begin
              (* Extension failed: the reference must agree the snapshot
                 was genuinely dead (the scan at start_ts must fail for at
                 least the current state to be unextendable — concretely,
                 some logged orec was overwritten after start_ts). *)
              if
                List.for_all
                  (fun (o, v) -> version_now o = version_at o !start_ts && version_now o = v)
                  !read_set
              then ok := false;
              (* The runtime aborts and retries: fresh snapshot. *)
              start_ts := !clock;
              read_set := []
            end
          end
        end
      done;
      !ok)

(* Property: random mixed transactional workload conserves a global
   invariant under every config. *)
let prop_sim_invariant cfg =
  QCheck.Test.make
    ~name:(Printf.sprintf "sim invariant (%s)" (Config.to_string cfg))
    ~count:20
    QCheck.(int_range 1 1000)
    (fun seed ->
      let nthreads = 4 and cells = 8 in
      let w = mk_world ~nthreads cfg in
      let base = Alloc.alloc (Engine.global_arena w) cells in
      let m = Engine.memory w in
      for i = 0 to cells - 1 do
        Memory.set m (base + i) 50
      done;
      let _ =
        Engine.run_sim ~seed w (fun th ->
            let g = Txn.thread_prng th in
            for _ = 1 to 30 do
              let i = Captured_util.Prng.int g cells in
              let j = Captured_util.Prng.int g cells in
              Txn.atomic th (fun tx ->
                  (* Move a unit i->j through a captured scratch buffer. *)
                  let scratch = Txn.alloc tx 1 in
                  let v = Txn.read tx (base + i) in
                  if v > 0 then begin
                    Txn.write tx scratch 1;
                    Txn.write tx (base + i) (v - Txn.read tx scratch);
                    Txn.write tx (base + j)
                      (Txn.read tx (base + j) + Txn.read tx scratch)
                  end;
                  Txn.free tx scratch)
            done)
      in
      let total = ref 0 in
      for i = 0 to cells - 1 do
        total := !total + Memory.get m (base + i)
      done;
      !total = 50 * cells)

(* Torture: random mixes of transfers, captured scratch allocations,
   allocas, nested transactions and user aborts, at 4 simulated threads.
   Invariants: the money supply is conserved, and no transactional
   allocation leaks (every scratch block is freed on every control path,
   including aborts). *)
let prop_stm_torture cfg =
  QCheck.Test.make
    ~name:(Printf.sprintf "torture (%s)" (Config.to_string cfg))
    ~count:15
    QCheck.(int_range 1 10000)
    (fun seed ->
      let nthreads = 4 and cells = 6 in
      let w = mk_world ~nthreads cfg in
      let base = Alloc.alloc (Engine.global_arena w) cells in
      let m = Engine.memory w in
      for i = 0 to cells - 1 do
        Memory.set m (base + i) 100
      done;
      let _ =
        Engine.run_sim ~seed w (fun th ->
            let g = Txn.thread_prng th in
            let module P = Captured_util.Prng in
            for _ = 1 to 25 do
              let src = base + P.int g cells and dst = base + P.int g cells in
              match P.int g 4 with
              | 0 ->
                  (* Plain transfer through a captured scratch cell. *)
                  Txn.atomic th (fun tx ->
                      let s = Txn.alloc tx 2 in
                      let v = Txn.read tx src in
                      if v > 0 then begin
                        Txn.write tx s 1;
                        Txn.write tx src (v - Txn.read tx s);
                        Txn.write tx dst (Txn.read tx dst + Txn.read tx s)
                      end;
                      Txn.free tx s)
              | 1 ->
                  (* Transfer with the credit in a nested transaction that
                     sometimes user-aborts; the debit must be undone by
                     hand (application-level compensation). *)
                  Txn.atomic th (fun tx ->
                      let v = Txn.read tx src in
                      if v > 0 then begin
                        Txn.write tx src (v - 1);
                        let credited =
                          try
                            Txn.atomic th (fun tx' ->
                                Txn.write tx' dst (Txn.read tx' dst + 1);
                                if P.chance g ~percent:30 then Txn.abort tx';
                                true)
                          with Txn.User_abort -> false
                        in
                        if not credited then Txn.write tx src (Txn.read tx src + 1)
                      end)
              | 2 ->
                  (* Whole-transaction user abort after scratch writes:
                     allocations and stack must roll back. *)
                  (try
                     Txn.atomic th (fun tx ->
                         let a = Txn.alloca tx 3 in
                         Txn.write tx a 7;
                         let s = Txn.alloc tx 4 in
                         Txn.write tx s 9;
                         Txn.write tx src (Txn.read tx src + 1000);
                         Txn.abort tx)
                   with Txn.User_abort -> ())
              | _ ->
                  (* Stack-heavy reader. *)
                  Txn.atomic th (fun tx ->
                      let a = Txn.alloca tx 2 in
                      Txn.write tx a (Txn.read tx src);
                      Txn.write tx (a + 1) (Txn.read tx dst);
                      ignore (Txn.read tx a + Txn.read tx (a + 1) : int))
            done)
      in
      let total = ref 0 in
      for i = 0 to cells - 1 do
        total := !total + Memory.get m (base + i)
      done;
      let leaks =
        List.init nthreads (fun tid -> Alloc.live_blocks (Engine.arena_of w tid))
      in
      !total = 100 * cells && List.for_all (( = ) 0) leaks)

(* ------------------------------------------------------------------ *)
(* Robustness: validation fuel, zombie sandbox, fault injection        *)

let test_fuel_forces_validation () =
  (* [tx_work] reaches no barrier, yet burns fuel like any operation:
     the write plus k budgets of it empty the tank exactly k times, each
     forcing a revalidation (all passing — the txn is valid). *)
  let w = mk_world Config.baseline in
  let cell = Alloc.alloc (Engine.global_arena w) 1 in
  let th = Engine.setup_thread w in
  let k = 3 in
  Txn.atomic th (fun tx ->
      Txn.write tx cell 1;
      for _ = 1 to k * Costs.fuel_budget do
        Txn.tx_work tx 1
      done);
  let s = Txn.thread_stats th in
  check_int "one exhaustion per budget" k s.Stats.fuel_exhaustions;
  check_int "still commits" 1 s.Stats.commits;
  check_int "value intact" 1 (Memory.get (Engine.memory w) cell)

let test_fuel_armed_by_default () =
  (* The default config arms the budget, owned accesses burn it, and
     every attempt starts with a full tank. *)
  let w = mk_world Config.baseline in
  let cell = Alloc.alloc (Engine.global_arena w) 1 in
  let th = Engine.setup_thread w in
  let run ops =
    Txn.atomic th (fun tx ->
        Txn.write tx cell 0;
        for _ = 2 to ops do
          ignore (Txn.read tx cell : int)
        done)
  in
  let exhaustions () = (Txn.thread_stats th).Stats.fuel_exhaustions in
  run (Costs.fuel_budget - 1);
  run (Costs.fuel_budget - 1);
  check_int "refilled at begin" 0 (exhaustions ());
  run Costs.fuel_budget;
  check_int "owned accesses burn fuel" 1 (exhaustions ())

let test_sandbox_bounds_error_propagates () =
  (* In a transaction whose snapshot is valid, a wild address is the
     program's own bug: the barrier reports it instead of touching
     memory, and the transaction rolls back. *)
  let w = mk_world Config.baseline in
  let cell = Alloc.alloc (Engine.global_arena w) 1 in
  Memory.set (Engine.memory w) cell 5;
  let th = Engine.setup_thread w in
  let boom addr =
    match Txn.atomic th (fun tx -> Txn.write tx cell 99; Txn.read tx addr) with
    | _ -> Alcotest.fail "wild access did not raise"
    | exception Invalid_argument _ -> ()
  in
  boom 0;
  boom (Memory.size (Engine.memory w) + 3);
  check "bounds hits counted" true
    ((Txn.thread_stats th).Stats.sandbox_bounds >= 2);
  check_int "writes rolled back" 5 (Memory.get (Engine.memory w) cell)

let test_phantom_exception_sandboxed () =
  (* The writer keeps a = b atomically, so a <> b is visible only to
     zombies; the exception a reader raises on that impossible state
     must be validated away (silent abort + retry), never escape.  An
     escape would surface as Sched.Fiber_failure from run_sim and fail
     the test; the sandbox_aborts tally proves phantoms really occurred. *)
  let sandboxed = ref 0 in
  for seed = 1 to 30 do
    let w = mk_world ~nthreads:4 Config.baseline in
    let arena = Engine.global_arena w in
    let a = Alloc.alloc arena 1 in
    let _spacer = Alloc.alloc arena 8 in
    let b = Alloc.alloc arena 1 in
    let rounds = 60 in
    let r =
      Engine.run_sim ~seed w (fun th ->
          if Txn.thread_id th = 0 then
            for _ = 1 to rounds do
              Txn.atomic th (fun tx ->
                  Txn.write tx a (Txn.read tx a + 1);
                  Txn.tx_work tx 20;
                  Txn.write tx b (Txn.read tx b + 1))
            done
          else
            for _ = 1 to rounds do
              Txn.atomic th (fun tx ->
                  let x = Txn.read tx a in
                  Txn.tx_work tx 5;
                  let y = Txn.read tx b in
                  if x <> y then failwith "phantom state")
            done)
    in
    sandboxed := !sandboxed + r.Engine.stats.Stats.sandbox_aborts;
    check_int
      (Printf.sprintf "cells equal (seed %d)" seed)
      (Memory.get (Engine.memory w) a)
      (Memory.get (Engine.memory w) b)
  done;
  check "phantoms occurred and were sandboxed" true (!sandboxed > 0)

let test_fault_spurious_abort_contained () =
  let cfg = Config.with_fault (Some Fault.Spurious_abort) Config.baseline in
  let w = mk_world ~nthreads:4 cfg in
  let cell = Alloc.alloc (Engine.global_arena w) 1 in
  let r =
    Engine.run_sim w (fun th ->
        for _ = 1 to 30 do
          Txn.atomic th (fun tx -> Txn.write tx cell (Txn.read tx cell + 1))
        done)
  in
  check "fault fired" true (r.Engine.stats.Stats.faults_injected > 0);
  check_int "still correct" 120 (Memory.get (Engine.memory w) cell)

let test_fault_alloc_log_drop_contained () =
  (* Dropping capture-log entries costs elision, never correctness. *)
  let run fault =
    let cfg =
      Config.with_fault fault (Config.runtime Alloc_log.Tree)
    in
    let w = mk_world ~nthreads:2 cfg in
    let head = Alloc.alloc (Engine.global_arena w) 1 in
    let r =
      Engine.run_sim w (fun th ->
          for _ = 1 to 20 do
            Txn.atomic th (fun tx ->
                let n = Txn.alloc tx 2 in
                Txn.write tx n (Txn.thread_id th);
                Txn.write tx (n + 1) (Txn.read tx head);
                Txn.write tx head n)
          done)
    in
    let m = Engine.memory w in
    let rec len p acc =
      if p = 0 then acc else len (Memory.get m (p + 1)) (acc + 1)
    in
    (r.Engine.stats, len (Memory.get m head) 0)
  in
  let clean, clean_len = run None in
  let faulty, faulty_len = run (Some Fault.Alloc_log_drop) in
  check_int "clean list complete" 40 clean_len;
  check_int "faulty list complete" 40 faulty_len;
  check "fault fired" true (faulty.Stats.faults_injected > 0);
  check "dropped entries cost elision" true
    (faulty.Stats.writes_elided_heap < clean.Stats.writes_elided_heap)

let test_fault_stale_read_potent () =
  (* The stale-read fault must be able to break snapshot consistency:
     some seed loses an update (that is what the checker's oracle is
     expected to flag).  Containment would make the fault sweep
     vacuous. *)
  let cfg = Config.with_fault (Some Fault.Stale_read) Config.baseline in
  let broken = ref 0 and fired = ref 0 in
  for seed = 1 to 25 do
    let w = mk_world ~nthreads:4 cfg in
    let cell = Alloc.alloc (Engine.global_arena w) 1 in
    let r =
      Engine.run_sim ~seed w (fun th ->
          for _ = 1 to 25 do
            Txn.atomic th (fun tx -> Txn.write tx cell (Txn.read tx cell + 1))
          done)
    in
    fired := !fired + r.Engine.stats.Stats.faults_injected;
    if Memory.get (Engine.memory w) cell <> 100 then incr broken
  done;
  check "fault fired" true (!fired > 0);
  check "lost updates occurred" true (!broken > 0)

let test_cm_policies_correct_under_contention () =
  let w = mk_world ~nthreads:8 Config.baseline in
  let cell = Alloc.alloc (Engine.global_arena w) 1 in
  let r =
    Engine.run_sim w (fun th ->
        for _ = 1 to 40 do
          Txn.atomic th (fun tx -> Txn.write tx cell (Txn.read tx cell + 1))
        done)
  in
  check_int "counter" 320 (Memory.get (Engine.memory w) cell);
  check_int "commits" 320 r.Engine.stats.Stats.commits;
  check "contended" true (r.Engine.stats.Stats.aborts > 0)

(* One transaction that calls [Txn.restart] [k] times, then commits an
   increment of [cell]. *)
let restart_then_commit th cell k =
  let left = ref k in
  Txn.atomic th (fun tx ->
      Txn.write tx cell (Txn.read tx cell + 1);
      if !left > 0 then begin
        decr left;
        Txn.restart tx
      end)

(* The [attempt] of every [Ev_begin] that [f th cell] emits on a fresh
   single-thread world. *)
let begin_attempts f =
  let w = mk_world Config.baseline in
  let cell = Alloc.alloc (Engine.global_arena w) 1 in
  let th = Engine.setup_thread w in
  let attempts = ref [] in
  Txn.set_tracer
    (Some
       (fun _ -> function
         | Txn.Ev_begin { attempt } -> attempts := attempt :: !attempts
         | _ -> ()));
  Fun.protect
    ~finally:(fun () -> Txn.set_tracer None)
    (fun () -> f th cell);
  List.rev !attempts

(* A transaction that raises starts no abort run for the next one: each
   of [failing; ok; ok] begins at attempt 1. *)
let test_attempt_resets_after_failure () =
  Alcotest.(check (list int)) "Ev_begin attempts" [ 1; 1; 1 ]
    (begin_attempts (fun th cell ->
         (try
            Txn.atomic th (fun tx ->
                Txn.write tx cell 1;
                failwith "boom")
          with Failure _ -> ());
         Txn.atomic th (fun tx -> Txn.write tx cell 2);
         Txn.atomic th (fun tx -> Txn.write tx cell 3)))

(* Attempts count up across restarts, and every way out of the retry
   loop — commit, user abort, exception — starts the next transaction
   at 1. *)
let test_attempt_numbers () =
  Alcotest.(check (list int)) "Ev_begin attempts" [ 1; 2; 3; 1; 1; 1; 2 ]
    (begin_attempts (fun th cell ->
         restart_then_commit th cell 2;
         (try Txn.atomic th (fun tx -> Txn.abort tx)
          with Txn.User_abort -> ());
         (try Txn.atomic th (fun _ -> failwith "boom") with Failure _ -> ());
         restart_then_commit th cell 1))

(* One thread runs [restart_then_commit] once per element of
   [restarts]. *)
let run_abort_runs restarts =
  let w = mk_world Config.baseline in
  let cell = Alloc.alloc (Engine.global_arena w) 1 in
  let r =
    Engine.run_sim w (fun th -> List.iter (restart_then_commit th cell) restarts)
  in
  check_int "one increment per commit" (List.length restarts)
    (Memory.get (Engine.memory w) cell);
  r.Engine.stats

(* The longest abort run is the retry loop's own attempt count: a
   transaction that restarts k times then commits records k, and the
   next transaction starts a fresh run. *)
let test_max_consec_aborts () =
  let k = 5 in
  let st = run_abort_runs [ k; 0 ] in
  check_int "cm_max_consec_aborts" k st.Stats.cm_max_consec_aborts;
  check_int "aborts" k st.Stats.aborts;
  check_int "commits" 2 st.Stats.commits

(* Over several transactions: the longest run is the largest restart
   count, every restart is one abort, and retry [a] waits
   [Costs.backoff ~attempt:a] with some jitter in [0, 63]. *)
let prop_abort_runs =
  QCheck.Test.make ~name:"abort runs and backoff cycles" ~count:40
    QCheck.(list_of_size Gen.(int_range 1 4) (int_range 0 8))
    (fun restarts ->
      let st = run_abort_runs restarts in
      let waits jitter =
        List.fold_left
          (fun acc k ->
            let sum = ref acc in
            for attempt = 1 to k do
              sum := !sum + Costs.backoff ~attempt ~jitter
            done;
            !sum)
          0 restarts
      in
      st.Stats.cm_max_consec_aborts = List.fold_left max 0 restarts
      && st.Stats.aborts = List.fold_left ( + ) 0 restarts
      && st.Stats.commits = List.length restarts
      && waits 0 <= st.Stats.backoff_cycles
      && st.Stats.backoff_cycles <= waits 63)

(* Thread 0 writes [cell] and holds its orec for [hold] cycles; thread 1
   starts once the lock is taken and runs one transaction whose attempt
   [a] (from 1) is [body tx cell a].  Before [body], each attempt first
   writes a cell of its own when [own] (so it owns an orec), then reads
   [reads] other one-word cells (its read log).  With [doom], thread 0
   also writes the first of those cells [doom_at] cycles into its hold,
   after thread 1 has read it.  Returns thread 1's stats, the wait
   before each of its retries (the growth of its [backoff_cycles] from
   one attempt's start to the next) and the lock-wait spins of each
   attempt but the last (the growth of its [lock_waits]). *)
let doom_at = 300

let run_blocked ?(reads = 0) ?(own = false) ?(doom = false) ~hold body =
  let w = mk_world ~nthreads:2 Config.baseline in
  let arena = Engine.global_arena w in
  let cell = Alloc.alloc arena 1 in
  let mine = Alloc.alloc arena 1 in
  let others = Array.init reads (fun _ -> Alloc.alloc arena 1) in
  let seen = ref [] in
  let r =
    Engine.run_sim ~seed:1 w (fun th ->
        if Txn.thread_id th = 0 then
          Txn.atomic th (fun tx ->
              Txn.write tx cell 1;
              if doom then begin
                Txn.tx_work tx doom_at;
                Txn.write tx others.(0) 1;
                Txn.tx_work tx (hold - doom_at)
              end
              else Txn.tx_work tx hold)
        else begin
          Txn.work th 200;
          let attempt = ref 0 in
          Txn.atomic th (fun tx ->
              incr attempt;
              let st = Txn.thread_stats th in
              seen := (st.Stats.backoff_cycles, st.Stats.lock_waits) :: !seen;
              if own then Txn.write tx mine !attempt;
              Array.iter (fun c -> ignore (Txn.read tx c : int)) others;
              body tx cell !attempt)
        end)
  in
  let rec growth = function
    | later :: (earlier :: _ as rest) -> (later - earlier) :: growth rest
    | _ -> []
  in
  ( r.Engine.per_thread.(1),
    List.rev (growth (List.map fst !seen)),
    List.rev (growth (List.map snd !seen)) )

(* Thread 0's hold ends inside the window thread 1 drew after its first
   spin-out: thread 1 retries at the release, well before the window's
   end, and reads the committed value. *)
let blocker_release = 480

let test_backoff_ends_at_release () =
  let value = ref 0 in
  let st, waits, _ =
    run_blocked ~hold:blocker_release (fun tx cell _ ->
        value := Txn.read tx cell)
  in
  check_int "one spin-out" 1 st.Stats.spin_aborts;
  check_int "one abort" 1 st.Stats.aborts;
  check_int "commits on the second attempt" 1 st.Stats.commits;
  check_int "reads the holder's value" 1 !value;
  match waits with
  | [ wait ] ->
      check "waited less than the shortest window" true
        (wait < Costs.backoff ~attempt:1 ~jitter:0);
      check_int "backoff_cycles is the wait" wait st.Stats.backoff_cycles
  | _ -> Alcotest.fail "expected one retry"

(* A hold that outlasts every window: each wait is the full window the
   abort drew, as with no blocker.  Attempts past the third skip the
   read, so the transaction commits while thread 0 still holds. *)
let test_backoff_full_window_while_held () =
  let spins = 3 in
  let st, waits, _ =
    run_blocked ~hold:100_000 (fun tx cell a ->
        if a <= spins then ignore (Txn.read tx cell : int))
  in
  check_int "spin-outs" spins st.Stats.spin_aborts;
  check_int "commits" 1 st.Stats.commits;
  check_int "one wait per spin-out" spins (List.length waits);
  List.iteri
    (fun k wait ->
      let attempt = k + 1 in
      check
        (Printf.sprintf "wait %d is a full window" attempt)
        true
        (Costs.backoff ~attempt ~jitter:0 <= wait
        && wait <= Costs.backoff ~attempt ~jitter:63))
    waits;
  let window jitter =
    List.fold_left ( + ) 0
      (List.init spins (fun k -> Costs.backoff ~attempt:(k + 1) ~jitter))
  in
  check "backoff_cycles within the windows" true
    (window 0 <= st.Stats.backoff_cycles
    && st.Stats.backoff_cycles <= window 63)

(* The blocker does not outlive its attempt: a [Txn.restart] on the
   attempt after a lock-wait abort waits the full window. *)
let test_backoff_blocker_cleared () =
  let st, waits, _ =
    run_blocked ~hold:blocker_release (fun tx cell a ->
        ignore (Txn.read tx cell : int);
        if a = 2 then Txn.restart tx)
  in
  check_int "one spin-out" 1 st.Stats.spin_aborts;
  check_int "two aborts" 2 st.Stats.aborts;
  check_int "commits" 1 st.Stats.commits;
  match waits with
  | [ released; restarted ] ->
      check "the lock-wait retry ended early" true
        (released < Costs.backoff ~attempt:1 ~jitter:0);
      check "the restart waited a full window" true
        (Costs.backoff ~attempt:2 ~jitter:0 <= restarted
        && restarted <= Costs.backoff ~attempt:2 ~jitter:63)
  | _ -> Alcotest.fail "expected two retries"

(* An attempt that owns no orec waits out a lock up to its redo
   break-even ([Lock_wait.spin_on_lock]): with [long_log] reads logged, that is
   [long_budget] spins, past [Costs.spin_limit].  A wait that ends after
   n spins records n + 1 lock waits (the last finds the wait over). *)
let long_log = 16
let long_budget = long_log * Costs.read_barrier / Costs.lock_spin

(* Thread 0 holds [cell] this long: thread 1's wait on it outlasts
   [Costs.spin_limit] spins but not [long_budget]. *)
let mid_hold = 1000

let read_cell tx cell _ = ignore (Txn.read tx cell : int)

let test_wait_extended () =
  check "the budget exceeds spin_limit" true (long_budget > Costs.spin_limit);
  let st, _, _ = run_blocked ~reads:long_log ~hold:mid_hold read_cell in
  check_int "no spin-out" 0 st.Stats.spin_aborts;
  check_int "one extended wait" 1 st.Stats.waits_extended;
  check_int "commits on the first attempt" 0 st.Stats.aborts;
  check_int "commits" 1 st.Stats.commits;
  check "waited past spin_limit, inside the budget" true
    (st.Stats.lock_waits > Costs.spin_limit + 1
    && st.Stats.lock_waits <= long_budget)

(* Thread 0 also holds a cell thread 1 already read: its commit will
   move that entry, so the doom scan ends the wait at [Costs.spin_limit]
   and thread 1 commits on its retry, over thread 0's values. *)
let test_wait_doomed () =
  let value = ref 0 in
  let st, _, spins =
    run_blocked ~reads:long_log ~doom:true ~hold:mid_hold (fun tx cell _ ->
        value := Txn.read tx cell)
  in
  check_int "one spin-out" 1 st.Stats.spin_aborts;
  check_int "no extended wait" 0 st.Stats.waits_extended;
  check_int "commits on the second attempt" 1 st.Stats.aborts;
  check_int "commits" 1 st.Stats.commits;
  check_int "reads the holder's value" 1 !value;
  Alcotest.(check (list int))
    "spun out at spin_limit" [ Costs.spin_limit + 1 ] spins

(* An attempt that owns an orec keeps [Costs.spin_limit], however long
   its read log. *)
let test_wait_owner_short () =
  let st, _, spins =
    run_blocked ~reads:long_log ~own:true ~hold:mid_hold read_cell
  in
  check_int "one spin-out" 1 st.Stats.spin_aborts;
  check_int "no extended wait" 0 st.Stats.waits_extended;
  check_int "commits" 1 st.Stats.commits;
  Alcotest.(check (list int))
    "spun out at spin_limit" [ Costs.spin_limit + 1 ] spins

(* A hold longer than the budget: the wait ends after exactly the
   budget, then the backoff waits its window, the lock still being
   held.  With 80 reads logged the break-even (560 spins) passes the
   longest backoff window, 2048 cycles, which caps the wait at 512
   spins. *)
let test_wait_budget_spent () =
  List.iter
    (fun (reads, hold, budget) ->
      let st, waits, spins = run_blocked ~reads ~hold read_cell in
      let label what = Printf.sprintf "%d reads: %s" reads what in
      check_int (label "commits") 1 st.Stats.commits;
      check
        (label "every spin-out ended an extended wait")
        true
        (st.Stats.spin_aborts >= 1
        && st.Stats.waits_extended >= st.Stats.spin_aborts);
      (match spins with
      | first :: _ ->
          check_int (label "first wait spun the budget") (budget + 1) first
      | [] -> Alcotest.fail (label "expected a spin-out"));
      match waits with
      | wait :: _ ->
          check (label "then a full backoff window") true
            (Costs.backoff ~attempt:1 ~jitter:0 <= wait
            && wait <= Costs.backoff ~attempt:1 ~jitter:63)
      | [] -> Alcotest.fail (label "expected a retry"))
    [
      (long_log, 3000, long_budget);
      (80, 8000, (64 lsl Costs.backoff_max_shift) / Costs.lock_spin);
    ]

(* ------------------------------------------------------------------ *)
(* The write set against a model: a Hashtbl of values plus the
   addresses in first-insert order.  Random insert (or set_value when
   already present), truncate, remove_range and clear, with every
   address's [find] checked after each step, so a truncated or removed
   address must read -1 until it is inserted again.  An insert stamps
   its entry with its value and set_value leaves the stamp, so the
   model keeps both and compaction must move them together.
   Pools of up to 100 addresses grow the 64-entry log and index within
   an attempt. *)

let prop_write_set_model =
  QCheck.Test.make ~name:"redo vs model" ~count:300
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let module P = Captured_util.Prng in
      let g = P.create seed in
      let pool =
        Array.init (2 + P.int g 99) (fun k ->
            if P.bool g then k else P.int g (1 lsl 40))
      in
      let r = Write_set.create () in
      let vals : (int, int * int) Hashtbl.t = Hashtbl.create 64 in
      let order = ref [||] in
      let keep f =
        order := Array.of_list (List.filter f (Array.to_list !order));
        Hashtbl.filter_map_inplace
          (fun a v -> if f a then Some v else None)
          vals
      in
      let ok = ref true in
      let expect b = if not b then ok := false in
      for _ = 1 to 400 do
        let a = pool.(P.int g (Array.length pool)) in
        let n = Array.length !order in
        (match P.int g 100 with
        | 0 ->
            Write_set.clear r;
            keep (fun _ -> false)
        | k when k < 6 ->
            let m = P.int g (n + 1) in
            Write_set.truncate r m;
            let kept = Array.sub !order 0 m in
            keep (fun a -> Array.mem a kept)
        | k when k < 10 ->
            let from = P.int g (n + 1) in
            let lo = pool.(P.int g (Array.length pool)) in
            let hi = lo + P.int g 8 in
            Write_set.remove_range r ~from ~lo ~hi;
            let dropped = Array.sub !order from (n - from) in
            keep (fun a -> not (Array.mem a dropped && a >= lo && a < hi))
        | _ ->
            let v = P.int g 1000 in
            let i = Write_set.find r a in
            if i >= 0 then begin
              Write_set.set_value r i v;
              Hashtbl.replace vals a (v, snd (Hashtbl.find vals a))
            end
            else begin
              Write_set.insert r a v ~stamp:v;
              order := Array.append !order [| a |];
              Hashtbl.replace vals a (v, v)
            end);
        expect (Write_set.size r = Array.length !order);
        Array.iteri
          (fun i a ->
            expect (Write_set.addr r i = a);
            expect (Write_set.value r i = fst (Hashtbl.find vals a));
            expect (Write_set.stamp r i = snd (Hashtbl.find vals a));
            expect (Write_set.find r a = i);
            expect (Write_set.summary_hit r a))
          !order;
        Array.iter
          (fun a -> if not (Hashtbl.mem vals a) then expect (Write_set.find r a = -1))
          pool
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Private-block annotations (paper Figure 7) through [Txn]             *)

let private_world () =
  let w = mk_world Config.baseline in
  let block = Alloc.alloc (Engine.global_arena w) 64 in
  (block, Engine.setup_thread w)

(* Whether one transactional read of [addr] took the private elision. *)
let read_elided th addr =
  let st = Txn.thread_stats th in
  let before = st.Stats.reads_elided_private in
  Txn.atomic th (fun tx -> ignore (Txn.read tx addr : int));
  st.Stats.reads_elided_private > before

let test_private_annotate () =
  let block, th = private_world () in
  Txn.add_private_block th ~addr:block ~size:16;
  check "inside elides" true (read_elided th (block + 15));
  check "one past kept" false (read_elided th (block + 16));
  Txn.remove_private_block th ~addr:block ~size:16;
  check "removed: kept" false (read_elided th block)

let test_private_persists () =
  let block, th = private_world () in
  Txn.add_private_block th ~addr:block ~size:10;
  Txn.add_private_block th ~addr:(block + 30) ~size:10;
  for _ = 1 to 3 do
    check "first block" true (read_elided th block);
    check "second block" true (read_elided th (block + 39))
  done

let test_private_zero_size () =
  let block, th = private_world () in
  Alcotest.check_raises "zero" (Invalid_argument "Txn.add_private_block")
    (fun () -> Txn.add_private_block th ~addr:block ~size:0);
  Alcotest.check_raises "negative" (Invalid_argument "Txn.add_private_block")
    (fun () -> Txn.add_private_block th ~addr:block ~size:(-3));
  check "nothing annotated" false (read_elided th block)

let test_private_overlap_rejected () =
  let block, th = private_world () in
  Txn.add_private_block th ~addr:block ~size:50;
  check "overlapping annotation raises" true
    (try
       Txn.add_private_block th ~addr:(block + 20) ~size:40;
       false
     with Invalid_argument _ -> true);
  check "original start" true (read_elided th block);
  check "original end" true (read_elided th (block + 49));
  check "overlap tail not added" false (read_elided th (block + 55))

(* ------------------------------------------------------------------ *)
(* Lazy versioning (deferred update)                                   *)

let lazy_baseline = Config.with_lazy Config.baseline
let lazy_tree = Config.with_lazy (Config.runtime Alloc_log.Tree)

let test_lazy_defers_stores () =
  let w = mk_world lazy_baseline in
  let cell = Alloc.alloc (Engine.global_arena w) 1 in
  Memory.set (Engine.memory w) cell 5;
  let th = Engine.setup_thread w in
  Txn.atomic th (fun tx ->
      Txn.write tx cell 9;
      check_int "memory untouched before commit" 5
        (Memory.get (Engine.memory w) cell);
      check_int "read-own-write answered from buffer" 9 (Txn.read tx cell));
  check_int "published at commit" 9 (Memory.get (Engine.memory w) cell);
  let st = Txn.thread_stats th in
  check_int "one buffer insert" 1 st.Stats.redo_inserts;
  check "read was a redo hit" true (st.Stats.redo_hits >= 1);
  check_int "no undo entries at top level" 0 st.Stats.undo_entries

let test_lazy_captured_writes_skip_buffer () =
  let w = mk_world lazy_tree in
  let th = Engine.setup_thread w in
  let a =
    Txn.atomic th (fun tx ->
        let a = Txn.alloc tx 4 in
        for i = 0 to 3 do
          Txn.write tx (a + i) (i * i)
        done;
        (* Captured stores are direct: visible in memory pre-commit. *)
        check_int "captured store visible immediately" 9
          (Memory.get (Engine.memory w) (a + 3));
        a)
  in
  let st = Txn.thread_stats th in
  check_int "all four writes skipped the buffer" 4 st.Stats.redo_skips;
  check_int "no buffer inserts" 0 st.Stats.redo_inserts;
  check_int "kept after commit" 4 (Memory.get (Engine.memory w) (a + 2))

let test_lazy_nested_partial_abort_restores_buffer () =
  let w = mk_world lazy_baseline in
  let cell = Alloc.alloc (Engine.global_arena w) 1 in
  Memory.set (Engine.memory w) cell 5;
  let th = Engine.setup_thread w in
  Txn.atomic th (fun tx ->
      Txn.write tx cell 10;
      (try
         Txn.atomic th (fun tx' ->
             Txn.write tx' cell 99;
             check_int "child sees its buffered write" 99 (Txn.read tx' cell);
             Txn.abort tx')
       with Txn.User_abort -> ());
      check_int "partial abort restored parent's buffered value" 10
        (Txn.read tx cell));
  check_int "parent value published" 10 (Memory.get (Engine.memory w) cell)

let test_lazy_nested_abort_truncates_child_inserts () =
  let w = mk_world lazy_baseline in
  let a = Alloc.alloc (Engine.global_arena w) 1 in
  let b = Alloc.alloc (Engine.global_arena w) 1 in
  let m = Engine.memory w in
  Memory.set m a 1;
  Memory.set m b 2;
  let th = Engine.setup_thread w in
  Txn.atomic th (fun tx ->
      Txn.write tx a 11;
      (try
         Txn.atomic th (fun tx' ->
             Txn.write tx' b 99;
             Txn.abort tx')
       with Txn.User_abort -> ());
      check_int "child insert dropped: read falls through to memory" 2
        (Txn.read tx b));
  check_int "outer published" 11 (Memory.get m a);
  check_int "child write never published" 2 (Memory.get m b)

let test_lazy_waw_single_publish () =
  let w = mk_world lazy_baseline in
  let cell = Alloc.alloc (Engine.global_arena w) 1 in
  let th = Engine.setup_thread w in
  Txn.atomic th (fun tx ->
      for i = 1 to 10 do
        Txn.write tx cell i
      done);
  check_int "last write wins" 10 (Memory.get (Engine.memory w) cell);
  let st = Txn.thread_stats th in
  check_int "single insert" 1 st.Stats.redo_inserts;
  check_int "overwrites deduped by waw" 9 st.Stats.waw_hits

(* Property: lazy read-own-write agrees with a reference Hashtbl model
   over random sequences mixing shared addresses (buffered) and captured
   addresses (which bypass the buffer and store directly) — reads must
   not care which path a value took, and commit must leave memory equal
   to the model. *)
let prop_lazy_read_own_write =
  QCheck.Test.make ~name:"lazy buffer vs Hashtbl model" ~count:200
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let module P = Captured_util.Prng in
      let g = P.create seed in
      let shared = 8 in
      let w = mk_world lazy_tree in
      let base = Alloc.alloc (Engine.global_arena w) shared in
      let m = Engine.memory w in
      for i = 0 to shared - 1 do
        Memory.set m (base + i) (1000 + i)
      done;
      let model : (int, int) Hashtbl.t = Hashtbl.create 64 in
      let th = Engine.setup_thread w in
      let ok = ref true in
      Txn.atomic th (fun tx ->
          let captured = Array.init 4 (fun _ -> Txn.alloc tx 1) in
          let pick () =
            if P.chance g ~percent:50 then base + P.int g shared
            else captured.(P.int g 4)
          in
          for _ = 1 to 100 do
            let a = pick () in
            if P.chance g ~percent:50 then begin
              let v = P.int g 1000 in
              Txn.write tx a v;
              Hashtbl.replace model a v
            end
            else begin
              let expect =
                match Hashtbl.find_opt model a with
                | Some v -> v
                | None -> Memory.get m a (* unwritten: initial value *)
              in
              if Txn.read tx a <> expect then ok := false
            end
          done);
      Hashtbl.iter (fun a v -> if Memory.get m a <> v then ok := false) model;
      !ok)


(* ------------------------------------------------------------------ *)
(* Durable transactions: WAL codec properties + crash-recovery          *)

module Sched = Captured_sim.Sched
module Snapshot = Captured_tmem.Snapshot

(* A memory's checkpoint encoding, as a checkpoint record carries it:
   the image written out into one array. *)
let snapshot_words m arenas =
  let im = Snapshot.image m arenas in
  let out = Array.make (Snapshot.image_words im) 0 and k = ref 0 in
  Snapshot.write_image im (fun a pos n ->
      Array.blit a pos out !k n;
      k := !k + n);
  out

(* -- codec generators ---------------------------------------------- *)

let gen_commit_record =
  QCheck.Gen.(
    let word = map (fun n -> n - 500_000) (int_bound 1_000_000) in
    let addr = int_range 1 100_000 in
    let writes = array_size (int_bound 8) (pair addr word) in
    let alloc =
      int_range 1 6 >>= fun size ->
      addr >>= fun a ->
      array_repeat size word >>= fun image -> return (a, size, image)
    in
    let allocs = array_size (int_bound 3) alloc in
    let frees = array_size (int_bound 3) addr in
    int_range 1 10_000 >>= fun seq ->
    int_bound 15 >>= fun tid ->
    writes >>= fun writes ->
    allocs >>= fun allocs ->
    frees >>= fun frees ->
    return (Wal.Commit { seq; tid; writes; allocs; frees }))

let gen_record =
  QCheck.Gen.(
    frequency
      [
        (6, gen_commit_record);
        ( 2,
          map2
            (fun addr value -> Wal.Raw { addr; value })
            (int_range 1 100_000)
            (map (fun n -> n - 500) (int_bound 1_000)) );
        ( 1,
          map2
            (fun seq snapshot -> Wal.Checkpoint { seq; raws = 0; snapshot })
            (int_bound 100)
            (array_size (int_bound 12) (int_bound 1_000)) );
      ])

let arb_record = QCheck.make ~print:(fun _ -> "<record>") gen_record

let prop_wal_roundtrip =
  QCheck.Test.make ~name:"wal codec roundtrip" ~count:500 arb_record (fun r ->
      let b = Wal.encode_record r in
      match Wal.decode_record b ~pos:0 with
      | Ok (r', stop) -> r' = r && stop = Bytes.length b
      | Error _ -> false)

let prop_wal_bitflip_rejected =
  QCheck.Test.make ~name:"wal checksum rejects single-bit flips" ~count:500
    QCheck.(pair arb_record (int_bound 1_000_000))
    (fun (r, salt) ->
      let b = Wal.encode_record r in
      (* Bit 63 of each word is dead space (OCaml ints are 63-bit): a
         flip there decodes to the identical record, which loses
         nothing.  Every *live* bit must be caught. *)
      let bit = salt mod (8 * Bytes.length b) in
      let bit = if bit mod 64 = 63 then bit - 1 else bit in
      let byte = bit / 8 in
      Bytes.set b byte
        (Char.chr (Char.code (Bytes.get b byte) lxor (1 lsl (bit mod 8))));
      match Wal.decode_record b ~pos:0 with
      | Error _ -> true
      | Ok _ -> false)

let prop_wal_truncation_torn =
  QCheck.Test.make ~name:"wal truncation detected at any cut" ~count:500
    QCheck.(pair arb_record (int_bound 1_000_000))
    (fun (r, salt) ->
      let b = Wal.encode_record r in
      let cut = 1 + (salt mod (Bytes.length b - 1)) in
      (* A byte-level prefix of a single record must scan to zero
         records with a torn tail at offset 0 — never to a record. *)
      match Wal.scan (Bytes.sub b 0 cut) with
      | [], Wal.Torn_tail, 0 -> true
      | _ -> false)

(* A checkpoint writes its image straight from memory into the record:
   the bytes must be those of the record holding the image's encoding.
   The image has runs longer than the stream's buffer, one across a
   memory chunk boundary, isolated words, and an arena. *)
let test_wal_checkpoint_streams_image () =
  let m = Memory.create ~words:16384 in
  let a = Alloc.create m ~base:12288 ~words:2048 in
  let p = Alloc.alloc a 6 in
  Memory.set m p 5;
  List.iter
    (fun (lo, n) ->
      for k = 0 to n - 1 do
        Memory.set m (lo + k) ((7 * k) - lo)
      done)
    [ (3, 1); (100, 3000); (4000, 1); (5000, 2100); (9000, 1024) ];
  let wal = Wal.create () in
  Wal.checkpoint wal (Snapshot.image m [| a |]);
  let snapshot = snapshot_words m [| a |] in
  check "image longer than the stream buffer" true
    (Array.length snapshot > 4 * 1024);
  Alcotest.(check bytes)
    "record bytes"
    (Wal.encode_record (Wal.Checkpoint { seq = 0; raws = 0; snapshot }))
    (Wal.contents wal)

(* A checkpoint frame too short to hold its [seq; raws; n] header, with
   a valid checksum, is corrupt: decoding must neither read past the
   frame nor raise.  The checksum is the WAL's documented fold
   (DESIGN.md §13), rebuilt here to forge the frame. *)
let test_wal_short_checkpoint_corrupt () =
  let mix h w =
    let h = (h lxor w) * 0x2545F4914F6CDD1D in
    let h = h lxor (h lsr 31) in
    let h = h * 0x100000001B3 in
    h lxor (h lsr 27)
  in
  List.iter
    (fun payload ->
      let words = [ 0x57414C00 lor 4; List.length payload ] @ payload in
      let sum = List.fold_left mix 0x57414C words in
      let b = Bytes.create (8 * (List.length words + 1)) in
      List.iteri
        (fun i w -> Bytes.set_int64_le b (8 * i) (Int64.of_int w))
        (words @ [ sum ]);
      match Wal.decode_record b ~pos:0 with
      | Error Wal.Corrupt -> ()
      | Error Wal.Torn -> Alcotest.fail "short checkpoint read as torn"
      | Ok _ -> Alcotest.fail "short checkpoint accepted")
    [ []; [ 7 ]; [ 7; 0 ] ]

(* Commit records over pairwise-disjoint write sets must replay to the
   same state in any interleaving — the redo images are absolute, so
   non-conflicting transaction order is immaterial to recovery. *)
let prop_wal_replay_order_insensitive =
  QCheck.Test.make ~name:"wal replay order-insensitive (disjoint writes)"
    ~count:100
    QCheck.(pair (int_range 1 1_000_000) (int_range 2 6))
    (fun (seed, n) ->
      let module P = Captured_util.Prng in
      let g = P.create seed in
      let words = 64 in
      let mem = Memory.create ~words in
      let arena = Alloc.create mem ~base:1 ~words:(words - 1) in
      let snapshot = snapshot_words mem [| arena |] in
      let ckpt = Wal.Checkpoint { seq = 0; raws = 0; snapshot } in
      (* one single-write commit per distinct address *)
      let commits =
        List.init n (fun i ->
            Wal.Commit
              {
                seq = i + 1;
                tid = 0;
                writes = [| (1 + i, 100 + P.int g 1_000) |];
                allocs = [||];
                frees = [||];
              })
      in
      let recover_order order =
        let buf = Buffer.create 256 in
        List.iter
          (fun r -> Buffer.add_bytes buf (Wal.encode_record r))
          (ckpt :: order);
        match Wal.recover_bytes (Buffer.to_bytes buf) with
        | Error m -> failwith m
        | Ok rc -> List.init n (fun i -> Memory.get rc.Wal.r_memory (1 + i))
      in
      let shuffle l =
        l
        |> List.map (fun r -> (P.int g 1_000_000, r))
        |> List.sort compare |> List.map snd
      in
      recover_order commits = recover_order (shuffle commits))

(* -- crash-point recovery ------------------------------------------ *)

let durable_counter ?fault ?(nthreads = 2) ?(incs = 6) mode =
  let config =
    Config.runtime ~scope:Config.heap_write_only_scope Alloc_log.Tree
    |> mode |> Config.with_fault fault |> Config.with_durable
  in
  let w = Engine.create ~nthreads config in
  let cell = Alloc.alloc (Engine.global_arena w) 1 in
  let wal = Wal.create ~group:config.Config.wal_group () in
  Engine.attach_wal w wal;
  let body th =
    for _ = 1 to incs do
      Txn.atomic th (fun tx -> Txn.write tx cell (Txn.read tx cell + 1))
    done
  in
  (w, wal, cell, body)

let crash_modes =
  [
    ("eager", fun c -> c);
    ("lazy", Config.with_lazy ~on:true);
    ("lazy+tv", fun c -> c |> Config.with_lazy |> Config.with_tvalidate);
  ]

let crash_faults =
  [
    Fault.Crash_pre_commit;
    Fault.Crash_mid_publish;
    Fault.Crash_post_publish;
    Fault.Torn_wal_record;
  ]

(* Run one durable counter under an injected crash fault and check the
   recovered state is prefix-consistent.  Whether (and when) the fault
   fires depends on the seed; clean completions are checked by full
   replay instead. *)
let run_crash_counter ~fault ~mode ~seed ~cell_of =
  let w, wal, cell, body = durable_counter ~fault ~nthreads:2 ~incs:6 mode in
  ignore w;
  let ctx =
    Printf.sprintf "%s/seed %d" (Fault.name fault) seed
  in
  let crashed =
    match Engine.run_sim ~seed w body with
    | (_ : Engine.result) ->
        Wal.sync wal;
        false
    | exception Sched.Fiber_failure (_, Wal.Crashed) -> true
  in
  (match Wal.recover wal with
  | Error m -> Alcotest.failf "%s: recovery failed: %s" ctx m
  | Ok rc ->
      let applied = rc.Wal.r_floor_seq + List.length rc.Wal.r_applied_seqs in
      (* gapless replay *)
      List.iteri
        (fun i seq ->
          if seq <> rc.Wal.r_floor_seq + i + 1 then
            Alcotest.failf "%s: replay gap at %d" ctx seq)
        rc.Wal.r_applied_seqs;
      (* durability floor: every acknowledged commit survived *)
      if applied < Wal.synced_seq wal then
        Alcotest.failf "%s: lost synced commit (%d < %d)" ctx applied
          (Wal.synced_seq wal);
      (* prefix consistency: commit k wrote k *)
      let v = Memory.get rc.Wal.r_memory (cell_of cell) in
      if v <> applied then
        Alcotest.failf "%s: recovered counter %d, %d commits replayed" ctx v
          applied;
      if (not crashed) && v <> 12 then
        Alcotest.failf "%s: clean run replayed %d/12 increments" ctx v);
  crashed

let test_crash_recovery_prefix_consistent () =
  List.iter
    (fun fault ->
      List.iter
        (fun (mname, mode) ->
          let crashes = ref 0 in
          for seed = 1 to 10 do
            if run_crash_counter ~fault ~mode ~seed ~cell_of:(fun c -> c)
            then incr crashes
          done;
          if !crashes = 0 then
            Alcotest.failf "%s/%s: fault never fired in 10 seeds"
              (Fault.name fault) mname)
        crash_modes)
    crash_faults

(* 30-seed torture on the highest-traffic crash point, lazy mode. *)
let test_crash_recovery_torture () =
  let crashes = ref 0 in
  for seed = 1 to 30 do
    if
      run_crash_counter ~fault:Fault.Crash_mid_publish
        ~mode:(Config.with_lazy ~on:true) ~seed ~cell_of:(fun c -> c)
    then incr crashes
  done;
  check "torture saw crashes" true (!crashes > 0)

(* Recovery rebuilds the conflict granules: every word of every block a
   committed transaction allocated maps to the same record in the
   recovered memory, for blocks restored from the mid-run checkpoint
   (record pages re-marked by [Alloc.restore_state]) and for blocks
   replayed after it (re-marked by [Alloc.replay_alloc_at]).  Enough
   records are allocated on each side of the checkpoint to claim fresh
   pages. *)
let test_wal_recovery_keeps_granules () =
  let config = Config.runtime Alloc_log.Tree |> Config.with_durable in
  let w = Engine.create ~nthreads:1 config in
  let anchor = Alloc.alloc (Engine.global_arena w) 1 in
  let wal = Wal.create ~group:1 () in
  Engine.attach_wal w wal;
  let th = Engine.setup_thread w in
  let blocks = ref [] in
  let round k =
    Txn.atomic th (fun tx ->
        let n = 1 + (k mod 20) in
        let b = Txn.alloc tx n in
        blocks := (b, n) :: !blocks;
        for i = 0 to n - 1 do
          Txn.write tx (b + i) (k + i + 1)
        done;
        Txn.write tx anchor b)
  in
  for k = 0 to 59 do
    round k
  done;
  Engine.checkpoint w;
  for k = 60 to 119 do
    round k
  done;
  Wal.sync wal;
  let words =
    List.concat_map (fun (b, n) -> List.init n (fun i -> b + i)) !blocks
  in
  check "records and arrays both allocated" true
    (List.exists (fun (_, n) -> n <= Alloc.record_words) !blocks
    && List.exists (fun (_, n) -> n > Alloc.record_words) !blocks);
  match Wal.recover wal with
  | Error m -> Alcotest.failf "recovery failed: %s" m
  | Ok rc ->
      let bits = config.Config.orec_bits in
      let before = Orec.over (Engine.memory w) ~bits
      and after = Orec.over rc.Wal.r_memory ~bits in
      List.iter
        (fun a ->
          check_int (Printf.sprintf "record of word %d" a)
            (Orec.index_of before a) (Orec.index_of after a))
        words

(* Kill-anywhere: truncate a clean run\'s log at every record boundary
   (simulating death at each acknowledged point) and at unaligned cuts
   inside each record (torn tails); every prefix must recover to the
   matching counter prefix. *)
let test_kill_anywhere_recovery () =
  let w, wal, cell, body = durable_counter (fun c -> c) ~incs:8 in
  ignore w;
  (match Engine.run_sim ~seed:3 w body with
  | (_ : Engine.result) -> Wal.sync wal
  | exception Sched.Fiber_failure _ -> Alcotest.fail "clean run crashed");
  let bytes = Wal.contents wal in
  let len = Bytes.length bytes in
  (* collect record boundaries *)
  let rec boundaries acc pos =
    if pos >= len then List.rev acc
    else
      match Wal.decode_record bytes ~pos with
      | Ok (_, next) -> boundaries (next :: acc) next
      | Error _ -> Alcotest.fail "undecodable clean log"
  in
  let bounds = boundaries [] 0 in
  check "log has records" true (List.length bounds > 8);
  let check_prefix ~torn cut =
    match Wal.recover_bytes (Bytes.sub bytes 0 cut) with
    | Error m -> Alcotest.failf "cut %d: %s" cut m
    | Ok rc ->
        let applied =
          rc.Wal.r_floor_seq + List.length rc.Wal.r_applied_seqs
        in
        let v = Memory.get rc.Wal.r_memory cell in
        if v <> applied then
          Alcotest.failf "cut %d: counter %d from %d commits" cut v applied;
        if torn && not rc.Wal.r_torn then
          Alcotest.failf "cut %d: torn tail not reported" cut
  in
  List.iter
    (fun b ->
      check_prefix ~torn:false b;
      if b + 9 < len then check_prefix ~torn:true (b + 9))
    bounds

(* The torn-checkpoint crash: a later checkpoint that tears must fall
   back to the previous checkpoint, losing nothing acknowledged. *)
let test_torn_checkpoint_falls_back () =
  let config =
    Config.runtime ~scope:Config.heap_write_only_scope Alloc_log.Tree
    |> Config.with_fault (Some Fault.Crash_mid_checkpoint)
    |> Config.with_durable
  in
  let w = Engine.create ~nthreads:1 config in
  let cell = Alloc.alloc (Engine.global_arena w) 1 in
  let wal = Wal.create ~group:1 () in
  Engine.attach_wal w wal;
  let th = Engine.setup_thread w in
  for _ = 1 to 5 do
    Txn.atomic th (fun tx -> Txn.write tx cell (Txn.read tx cell + 1))
  done;
  Wal.sync wal;
  (match Engine.checkpoint w with
  | () -> Alcotest.fail "checkpoint did not tear"
  | exception Wal.Crashed -> ());
  match Wal.recover wal with
  | Error m -> Alcotest.failf "recovery failed: %s" m
  | Ok rc ->
      check "torn ckpt reported" true (rc.Wal.r_torn || rc.Wal.r_corrupt);
      check_int "all commits survive"
        5
        (rc.Wal.r_floor_seq + List.length rc.Wal.r_applied_seqs);
      check_int "counter restored" 5 (Memory.get rc.Wal.r_memory cell)

(* Captured-write WAL elision: every write the capture analysis elides
   (stack, heap, static) stays out of the log, mirroring redo elision. *)
let test_wal_skips_equal_elided_writes () =
  let config =
    Config.runtime Alloc_log.Tree |> Config.with_lazy |> Config.with_tvalidate
    |> Config.with_durable
  in
  let w = Engine.create ~nthreads:1 config in
  let shared = Alloc.alloc (Engine.global_arena w) 1 in
  let wal = Wal.create ~group:2 () in
  Engine.attach_wal w wal;
  let th = Engine.setup_thread w in
  for round = 1 to 4 do
    Txn.atomic th (fun tx ->
        (* captured block: writes elided from redo buffer AND log *)
        let b = Txn.alloc tx 4 in
        for i = 0 to 3 do
          Txn.write tx (b + i) (round * 10 + i)
        done;
        (* stack cells: elided as well *)
        let sp = Txn.alloca tx 2 in
        Txn.write tx sp round;
        (* shared: instrumented, must reach the log *)
        Txn.write tx shared (Txn.read tx shared + 1))
  done;
  Wal.sync wal;
  let s = Txn.thread_stats th in
  let elided =
    s.Stats.writes_elided_stack + s.Stats.writes_elided_heap
    + s.Stats.writes_elided_static
  in
  check "elided some writes" true (elided > 0);
  check_int "wal_skips = elided writes" elided s.Stats.wal_skips;
  check_int "one record per txn" 4 s.Stats.wal_records;
  (* recovery restores the shared counter and the captured images *)
  match Wal.recover wal with
  | Error m -> Alcotest.failf "recovery failed: %s" m
  | Ok rc -> check_int "shared restored" 4 (Memory.get rc.Wal.r_memory shared)

(* One transaction writes [a], then an address whose slot in a
   1024-bucket [Range_filter] evicts [a], then [a] again — the pair that
   made eager and lazy logs differ when the eager engine found rewrites
   through such a filter.  The write set is exact on both engines: one
   entry per address (2 undo entries for 2 addresses), the commit record
   names [a] once, both engines log the same bytes and recovery restores
   the last value. *)
let test_wal_write_set_same_on_both_engines () =
  let waw = Captured_core.Range_filter.create ~buckets:1024 () in
  let evicts a b =
    Captured_core.Range_filter.clear waw;
    Captured_core.Range_filter.insert waw ~lo:a ~hi:(a + 1);
    Captured_core.Range_filter.insert waw ~lo:b ~hi:(b + 1);
    not (Captured_core.Range_filter.contains waw ~lo:a ~hi:(a + 1))
  in
  let run (name, mode) =
    let config =
      Config.runtime Alloc_log.Tree |> mode |> Config.with_durable ~group:1
    in
    let w = Engine.create ~nthreads:1 config in
    let arena = Engine.global_arena w in
    let a = Alloc.alloc arena 1 and block = Alloc.alloc arena 4096 in
    let b = List.find (evicts a) (List.init 4096 (( + ) block)) in
    let wal = Wal.create ~group:1 () in
    Engine.attach_wal w wal;
    let th = Engine.setup_thread w in
    Txn.atomic th (fun tx ->
        Txn.write tx a 1;
        Txn.write tx b 2;
        Txn.write tx a 3);
    let s = Txn.thread_stats th in
    if name = "eager" then
      check_int "eager: one undo entry per address" 2 s.Stats.undo_entries;
    (match Wal.recover wal with
    | Error m -> Alcotest.failf "%s: recovery failed: %s" name m
    | Ok rc ->
        check_int (name ^ ": a restored") 3 (Memory.get rc.Wal.r_memory a);
        check_int (name ^ ": b restored") 2 (Memory.get rc.Wal.r_memory b));
    s.Stats.wal_bytes
  in
  match List.map run crash_modes with
  | eager :: others ->
      List.iter (check_int "same record bytes as eager" eager) others
  | [] -> assert false

(* The commit path encodes its record straight from the write set
   ([Wal.append_commit]); [Wal.encode_record] is the reference codec.
   Every commit frame the live path appends must be the bytes
   [encode_record] gives the record it decodes to, and that record must
   name the write set in first-write order with final values, the
   surviving allocation with its image and the deferred free.  Under
   [baseline] no write is elided, so the fresh block's words are in the
   write set too. *)
let test_wal_commit_bytes_match_codec () =
  let run (name, mode) =
    let config = mode Config.baseline |> Config.with_durable ~group:1 in
    let w = Engine.create ~nthreads:1 config in
    let arena = Engine.global_arena w in
    let a = Alloc.alloc arena 1 and b = Alloc.alloc arena 1 in
    let wal = Wal.create ~group:1 () in
    Engine.attach_wal w wal;
    let th = Engine.setup_thread w in
    let old =
      Txn.atomic th (fun tx ->
          let o = Txn.alloc tx 3 in
          Txn.write tx (o + 1) 9;
          o)
    in
    let fresh =
      Txn.atomic th (fun tx ->
          Txn.write tx a 1;
          Txn.write tx b 2;
          Txn.write tx a 3;
          let f = Txn.alloc tx 2 in
          Txn.write tx f 4;
          Txn.write tx (f + 1) 5;
          Txn.free tx old;
          f)
    in
    Txn.atomic th (fun tx -> Txn.write tx b 6);
    Wal.sync wal;
    let bytes = Wal.contents wal in
    let rec frames acc pos =
      if pos >= Bytes.length bytes then List.rev acc
      else
        match Wal.decode_record bytes ~pos with
        | Error _ -> Alcotest.failf "%s: undecodable log at %d" name pos
        | Ok ((Wal.Commit _ as r), next) ->
            let live = Bytes.sub bytes pos (next - pos) in
            Alcotest.(check bytes)
              (name ^ ": live bytes = encode_record")
              (Wal.encode_record r) live;
            frames (r :: acc) next
        | Ok (_, next) -> frames acc next
    in
    match frames [] 0 with
    | [ Wal.Commit c1; Wal.Commit c2; Wal.Commit c3 ] ->
        check_int (name ^ ": first commit's allocs") 1 (Array.length c1.allocs);
        Alcotest.(check (array (pair int int)))
          (name ^ ": write set in first-write order, final values")
          [| (a, 3); (b, 2); (fresh, 4); (fresh + 1, 5) |]
          c2.writes;
        (match c2.allocs with
        | [| (addr, _, image) |] ->
            check_int (name ^ ": alloc address") fresh addr;
            check_int (name ^ ": alloc image") 4 image.(0);
            check_int (name ^ ": alloc image") 5 image.(1)
        | _ -> Alcotest.failf "%s: one alloc expected" name);
        Alcotest.(check (array int)) (name ^ ": frees") [| old |] c2.frees;
        Alcotest.(check (array (pair int int)))
          (name ^ ": write-only commit") [| (b, 6) |] c3.writes
    | l -> Alcotest.failf "%s: %d commit records" name (List.length l)
  in
  List.iter run
    [ ("baseline", fun c -> c); ("baseline+lazy", Config.with_lazy ~on:true) ]

(* A transactional store into a block annotated private is elided
   ([writes_elided_private]) but, unlike a captured one, is not a
   [wal_skips]: it is visible at once and survives an abort, so it is
   logged as a raw record at the barrier, and recovery replays it.
   [abort] makes the writing attempt end in a user abort. *)
let private_store_under_wal ~abort () =
  let config = Config.runtime Alloc_log.Tree |> Config.with_durable in
  let w = Engine.create ~nthreads:1 config in
  let block = Alloc.alloc (Engine.global_arena w) 8 in
  let wal = Wal.create ~group:4 () in
  Engine.attach_wal w wal;
  let th = Engine.setup_thread w in
  Txn.add_private_block th ~addr:block ~size:8;
  let s = Txn.thread_stats th in
  let skips = s.Stats.wal_skips in
  (match
     Txn.atomic th (fun tx ->
         Txn.write tx (block + 3) 77;
         if abort then Txn.abort tx)
   with
  | () -> check "attempt committed" false abort
  | exception Txn.User_abort -> check "attempt aborted" true abort);
  Wal.sync wal;
  check_int "private write elided" 1 s.Stats.writes_elided_private;
  check_int "not a captured skip" skips s.Stats.wal_skips;
  check_int "value in memory" 77 (Memory.get (Engine.memory w) (block + 3));
  match Wal.recover wal with
  | Error m -> Alcotest.failf "recovery failed: %s" m
  | Ok rc ->
      check_int "raw record replayed" 1 rc.Wal.r_raws_applied;
      check_int "value restored" 77 (Memory.get rc.Wal.r_memory (block + 3))

let config_cases ?(configs = all_configs) name f =
  List.map
    (fun cfg ->
      Alcotest.test_case
        (Printf.sprintf "%s [%s]" name (Config.to_string cfg))
        `Quick
        (fun () -> f cfg))
    configs

(* ------------------------------------------------------------------ *)
(* Site tier (+fp): per-site sampled capture checks                    *)

let tier_site = Site.declare ~write:false "stm.test.tier"

(* One access through the tier as [Elision.try_elide] makes it: [true] when
   the capture check ran (and found [hit]). *)
let tier_access t ~hit =
  (not (Site_tier.bypass t tier_site))
  && begin
       Site_tier.record t tier_site ~hit;
       true
     end

(* Checks run by the next [n] accesses, all hitting or all missing. *)
let tier_checks t ~hit n =
  let c = ref 0 in
  for _ = 1 to n do
    if tier_access t ~hit then incr c
  done;
  !c

let test_tier_window_threshold () =
  let after_window_with hits =
    let t = Site_tier.create ~sites:(Site.count ()) in
    for k = 1 to Site_tier.window do
      check "first window is fully checked" true
        (tier_access t ~hit:(k <= hits))
    done;
    tier_checks t ~hit:false Site_tier.sample_every
  in
  check_int "hitless window bypasses all but one in sample_every" 1
    (after_window_with 0);
  check_int "min_hits - 1 hits bypass" 1
    (after_window_with (Site_tier.min_hits - 1));
  check_int "min_hits hits keep checking" Site_tier.sample_every
    (after_window_with Site_tier.min_hits)

let test_tier_reenables_within_a_window () =
  let t = Site_tier.create ~sites:(Site.count ()) in
  ignore (tier_checks t ~hit:false Site_tier.window : int);
  let n = Site_tier.window * Site_tier.sample_every in
  check_int "one bypassed access in sample_every is checked"
    (n / Site_tier.sample_every) (tier_checks t ~hit:true n);
  check_int "re-enabled within window * sample_every accesses"
    Site_tier.sample_every
    (tier_checks t ~hit:true Site_tier.sample_every)

let test_tier_ids_beyond_table () =
  let t = Site_tier.create ~sites:0 in
  let n = 4 * Site_tier.window in
  check_int "always checked" n (tier_checks t ~hit:false n)

let fp_tree = Config.with_fastpath (Config.runtime Alloc_log.Tree)

(* End to end through the read barrier: a site reading shared memory is
   bypassed after its first window and its reads keep their full
   barriers; once the same site reads only captured memory, it is
   checked — and elided — again within window * sample_every reads.
   Without +fp the tier is absent. *)
let test_tier_in_barrier () =
  let w = mk_world fp_tree in
  let cell = Alloc.alloc (Engine.global_arena w) 1 in
  let th = Engine.setup_thread w in
  let st = Txn.thread_stats th in
  let read_n tx addr n =
    for _ = 1 to n do
      ignore (Txn.read_at ~site:tier_site tx addr : int)
    done
  in
  Txn.atomic th (fun tx -> read_n tx cell Site_tier.window);
  check_int "first window checked" 0 st.Stats.capture_site_bypasses;
  Txn.atomic th (fun tx -> read_n tx cell Site_tier.sample_every);
  check_int "then all but one in sample_every bypassed"
    (Site_tier.sample_every - 1) st.Stats.capture_site_bypasses;
  check_int "shared reads never elided" 0 (Stats.reads_elided st);
  Txn.atomic th (fun tx ->
      let a = Txn.alloc tx 1 in
      read_n tx a (Site_tier.window * Site_tier.sample_every);
      let bypasses = st.Stats.capture_site_bypasses
      and elided = st.Stats.reads_elided_heap in
      read_n tx a Site_tier.window;
      check_int "re-enabled: no more bypasses" bypasses
        st.Stats.capture_site_bypasses;
      check_int "re-enabled: every read elided" (elided + Site_tier.window)
        st.Stats.reads_elided_heap);
  let w = mk_world (Config.runtime Alloc_log.Tree) in
  let cell = Alloc.alloc (Engine.global_arena w) 1 in
  let th = Engine.setup_thread w in
  Txn.atomic th (fun tx -> read_n tx cell (4 * Site_tier.window));
  check_int "no tier without +fp" 0
    (Txn.thread_stats th).Stats.capture_site_bypasses

(* A site declared after the thread was created lies beyond its table
   and is checked on every access. *)
let test_tier_late_site_checked () =
  let w = mk_world fp_tree in
  let cell = Alloc.alloc (Engine.global_arena w) 1 in
  let th = Engine.setup_thread w in
  let late = Site.declare ~write:false "stm.test.tier_late" in
  let n = 4 * Site_tier.window in
  Txn.atomic th (fun tx ->
      for _ = 1 to n do
        ignore (Txn.read_at ~site:late tx cell : int)
      done);
  let st = Txn.thread_stats th in
  check_int "never bypassed" 0 st.Stats.capture_site_bypasses;
  check_int "every read checked" n st.Stats.capture_summary_rejects

(* ------------------------------------------------------------------ *)
(* Read-after-read forwarding: the value guard                          *)

(* A re-read is answered from the read log only while memory still holds
   the logged value.  This attempt's own direct stores bump no orec, so
   the guard is all that sends a re-read after one down the full path.
   Here the reads take full barriers (reads are out of the check scope,
   or their site is bypassed) while the write between them is elided as
   captured: the second read must see the write, and only the third,
   with memory unchanged since, is forwarded. *)
let forward_site = Site.declare ~write:false "stm.test.forward_guard"

let check_forward_guard ?(cool = fun _ _ -> ()) ?(bypassed = 0) cfg =
  let w = mk_world cfg in
  let th = Engine.setup_thread w in
  cool w th;
  let st = Txn.thread_stats th in
  let forwarded0 = st.Stats.reads_forwarded
  and bypasses0 = st.Stats.capture_site_bypasses
  and elided0 = Stats.reads_elided st in
  let first, second, third =
    Txn.atomic th (fun tx ->
        let a = Txn.alloc tx 1 in
        let first = Txn.read_at ~site:forward_site tx a in
        Txn.write tx a (first + 42);
        let second = Txn.read_at ~site:forward_site tx a in
        (first, second, Txn.read_at ~site:forward_site tx a))
  in
  let name = Config.to_string cfg in
  check_int (name ^ ": the write was a direct store") 1
    (Stats.writes_elided st);
  check_int (name ^ ": reads took full barriers") elided0
    (Stats.reads_elided st);
  check_int (name ^ ": reads were bypassed") bypassed
    (st.Stats.capture_site_bypasses - bypasses0);
  check_int (name ^ ": re-read sees the elided write") (first + 42) second;
  check_int (name ^ ": unchanged re-read") second third;
  check_int (name ^ ": only the unchanged re-read is forwarded") 1
    (st.Stats.reads_forwarded - forwarded0)

let heap_write_only = Config.runtime ~scope:Config.heap_write_only_scope Alloc_log.Tree

let test_forward_guard_eager () = check_forward_guard heap_write_only

let test_forward_guard_lazy () =
  check_forward_guard (Config.with_lazy heap_write_only)

let test_forward_guard_bypassed () =
  let cool w th =
    (* One hitless window of reads of shared cells bypasses the site for
       the next sample_every - 1 accesses. *)
    let cells = Alloc.alloc (Engine.global_arena w) Site_tier.window in
    Txn.atomic th (fun tx ->
        for k = 0 to Site_tier.window - 1 do
          ignore (Txn.read_at ~site:forward_site tx (cells + k) : int)
        done)
  in
  check_forward_guard ~cool ~bypassed:3 fp_tree

(* ------------------------------------------------------------------ *)
(* Epoch-based reclamation (Reclaim) unit tests                        *)

let test_reclaim_advance_gated () =
  let s = Reclaim.create_shared 2 in
  let h0 = Reclaim.handle s ~slot:0 in
  let _h1 = Reclaim.handle s ~slot:1 in
  check_int "initial epoch" 1 (Reclaim.global_epoch s);
  (* A fully quiescent world always advances. *)
  check "advance when all quiescent" true (Reclaim.try_advance s);
  check_int "epoch bumped" 2 (Reclaim.global_epoch s);
  (* An active thread that has observed the current epoch doesn't
     block; once the epoch moves past its announcement it does. *)
  Reclaim.announce h0;
  check "current active observer ok" true (Reclaim.try_advance s);
  check "stale active observer blocks" false (Reclaim.try_advance s);
  Reclaim.announce_quiescent h0;
  check "quiescence unblocks" true (Reclaim.try_advance s)

let test_reclaim_two_grace_periods () =
  let s = Reclaim.create_shared 1 in
  let h = Reclaim.handle s ~slot:0 in
  let released = ref [] in
  let free ~addr ~size = released := (addr, size) :: !released in
  Reclaim.retire h ~addr:100 ~size:4;
  check_int "pending" 1 (Reclaim.pending h);
  check_int "pending words" 4 (Reclaim.pending_words h);
  check_int "no release at the stamp epoch" 0 (Reclaim.drain h ~free);
  ignore (Reclaim.try_advance s : bool);
  check_int "one grace period is not enough" 0 (Reclaim.drain h ~free);
  ignore (Reclaim.try_advance s : bool);
  check_int "two grace periods release" 1 (Reclaim.drain h ~free);
  check "callback saw the block" true (!released = [ (100, 4) ]);
  check_int "limbo empty" 0 (Reclaim.pending h)

let test_reclaim_flush_unconditional () =
  let s = Reclaim.create_shared 1 in
  let h = Reclaim.handle s ~slot:0 in
  let count = ref 0 in
  Reclaim.retire h ~addr:10 ~size:2;
  Reclaim.retire h ~addr:20 ~size:8;
  check_int "words pending" 10 (Reclaim.pending_words h);
  check_int "flush releases regardless of epoch" 2
    (Reclaim.flush h ~free:(fun ~addr:_ ~size:_ -> incr count));
  check_int "callback ran per block" 2 !count;
  check_int "nothing pending" 0 (Reclaim.pending h)

(* End-of-run parity: the engine flushes every limbo list once the world
   is provably quiescent, so +ebr leaves the allocator in exactly the
   state a no-EBR run does — while the stats prove frees really were
   deferred through limbo along the way. *)
let test_reclaim_engine_parity () =
  let run cfg =
    let w = mk_world cfg in
    let arena = Engine.global_arena w in
    let blocks = Array.init 4 (fun _ -> Alloc.alloc arena 2) in
    let r =
      Engine.run_sim ~seed:1 w (fun th ->
          Array.iter
            (fun b -> Txn.atomic th (fun tx -> Txn.free tx b))
            blocks)
    in
    (Alloc.live_blocks arena, Alloc.live_words arena, r.Engine.stats)
  in
  let cfg = Config.runtime Alloc_log.Tree in
  let live0, words0, _ = run cfg in
  let live1, words1, s = run (Config.with_ebr cfg) in
  check_int "live blocks parity after end-of-run flush" live0 live1;
  check_int "live words parity" words0 words1;
  check "frees went through limbo" true (s.Stats.limbo_blocks > 0)

(* [quiesce] is a fence between transactions: it refuses to run inside
   one, top-level or nested, and runs once the transaction is over,
   however it ended. *)
let test_quiesce_outside_transactions () =
  let w = mk_world (Config.with_ebr (Config.runtime Alloc_log.Tree)) in
  let th = Engine.setup_thread w in
  let inside what =
    Alcotest.check_raises what
      (Invalid_argument "Txn.quiesce: called inside a transaction") (fun () ->
        Txn.quiesce th)
  in
  Txn.atomic th (fun _ -> inside "top level");
  Txn.atomic th (fun _ -> Txn.atomic th (fun _ -> inside "nested"));
  Txn.quiesce th;
  (try Txn.atomic th (fun tx -> Txn.abort tx) with Txn.User_abort -> ());
  Txn.quiesce th;
  Txn.atomic th (fun _ ->
      (try Txn.atomic th (fun tx' -> Txn.abort tx') with Txn.User_abort -> ());
      inside "after a nested abort");
  Txn.quiesce th;
  let attempts = ref 0 in
  Txn.atomic th (fun tx ->
      incr attempts;
      if !attempts = 1 then Txn.restart tx;
      inside "retried attempt");
  check_int "restarted once" 2 !attempts;
  Txn.quiesce th

(* ------------------------------------------------------------------ *)
(* The config grammar: Config.to_string / Config.of_string              *)

let tree = Config.runtime Alloc_log.Tree
let fp = Config.with_fastpath
let tv = Config.with_tvalidate
let lz = Config.with_lazy
let wal = Config.with_durable
let ebr = Config.with_ebr

(* Exact spellings.  Every config a benchmark workload or a CI checker
   alias runs is here, so a change of spelling shows up as a diff. *)
let golden_configs =
  [
    (* each head, and a token for each field *)
    (Config.baseline, "baseline");
    (Config.compiler, "compiler");
    (Config.runtime Alloc_log.Array, "array");
    (Config.runtime Alloc_log.Filter, "filtering");
    (Config.audit, "baseline+audit");
    ({ tree with Config.static_filter = true }, "tree+sf");
    (Config.runtime ~scope:Config.write_only_scope Alloc_log.Tree,
     "tree+scope:shw");
    (Config.with_fault (Some Fault.Stale_read) Config.baseline,
     "baseline+fault:stale-read");
    (Config.with_durable ~group:1 Config.baseline, "baseline+wal+group:1");
    ({ Config.compiler with Config.audit = true; orec_bits = 10 },
     "compiler+audit+orecs:10");
    ({ tree with Config.fences = true }, "tree+fence");
    (ebr ~on:false (ebr Config.baseline), "baseline");
    (* perf's four workloads: vacation, kmeans, intruder-durable, kv *)
    (ebr (fp tree), "tree+fp+ebr");
    (fp tree, "tree+fp");
    ( Config.runtime ~scope:Config.heap_write_only_scope Alloc_log.Tree
      |> lz |> tv |> wal ~group:4 |> ebr,
      "tree+scope:hw+tv+lazy+wal+ebr" );
    (ebr (tv (fp tree)), "tree+fp+tv+ebr");
    (* @check-smoke (and the fault-matrix modes) *)
    (tree, "tree");
    (tv tree, "tree+tv");
    (tv (fp tree), "tree+fp+tv");
    (lz tree, "tree+lazy");
    (lz (fp tree), "tree+fp+lazy");
    (* the clean +wal sweep of @crash-matrix *)
    (wal tree, "tree+wal");
    (wal (lz tree), "tree+lazy+wal");
    (wal (tv (fp tree)), "tree+fp+tv+wal");
    (* @reclaim-smoke *)
    (ebr tree, "tree+ebr");
    (ebr (tv tree), "tree+tv+ebr");
    (ebr (lz tree), "tree+lazy+ebr");
  ]

(* The fault and crash matrices cross each fault with a mode list; the
   fault's token goes last. *)
let golden_fault_cells =
  let crash = List.filter Fault.is_crash Fault.all in
  let cells faults modes =
    List.concat_map
      (fun f ->
        List.map
          (fun (c, s) ->
            (Config.with_fault (Some f) c, s ^ "+fault:" ^ Fault.name f))
          modes)
      faults
  in
  cells
    Fault.
      [
        Skip_validation; Stale_read; Delayed_unlock; Spurious_abort;
        Alloc_log_drop; Clock_stall;
      ]
    [ (tree, "tree"); (fp tree, "tree+fp"); (tv tree, "tree+tv");
      (tv (fp tree), "tree+fp+tv") ]
  @ cells Fault.[ Redo_drop; Publish_partial ]
      [ (lz tree, "tree+lazy"); (lz (fp tree), "tree+fp+lazy") ]
  @ cells [ Fault.Premature_reuse ]
      [ (ebr tree, "tree+ebr"); (ebr (lz tree), "tree+lazy+ebr") ]
  @ cells crash
      [
        (wal tree, "tree+wal"); (wal (lz tree), "tree+lazy+wal");
        (wal (tv (fp tree)), "tree+fp+tv+wal");
        (wal (lz (tv tree)), "tree+tv+lazy+wal");
        (ebr (wal tree), "tree+wal+ebr");
        (ebr (wal (lz (tv tree))), "tree+tv+lazy+wal+ebr");
      ]

let check_golden table () =
  List.iter
    (fun (c, s) ->
      Alcotest.(check string) s s (Config.to_string c);
      check (s ^ " parses back") true (Config.of_string s = Ok c))
    table

(* Tokens may come in any order; the printed order is fixed. *)
let test_config_any_order () =
  check "tree+ebr+tv+fp" true
    (Config.of_string "tree+ebr+tv+fp" = Ok (ebr (tv (fp tree))));
  check "baseline+orecs:10+scope:hw" true
    (Config.of_string "baseline+orecs:10+scope:hw"
    = Ok
        {
          Config.baseline with
          Config.orec_bits = 10;
          scope = Config.heap_write_only_scope;
        })

let test_config_rejects () =
  let mentions m known =
    let n = String.length known in
    let rec at i =
      i + n <= String.length m && (String.sub m i n = known || at (i + 1))
    in
    at 0
  in
  List.iter
    (fun bad ->
      match Config.of_string bad with
      | Ok c -> Alcotest.failf "%S parsed as %s" bad (Config.to_string c)
      | Error m ->
          (* the error names the known spellings *)
          check (bad ^ ": names the grammar") true
            (List.for_all (mentions m)
               [ "tree"; "filtering"; "+fp"; Config.grammar () ]))
    [
      ""; "eager"; "filter"; "tree+xx"; "tree+fp+fp"; "tree+lazy+tv+lazy";
      "tree+group:0"; "tree+orecs:x"; "tree+orecs:3";
      "tree+orecs:25"; "tree+group:07"; "tree+fp:1"; "tree+wal:";
      "tree+scope:wh"; "tree+scope:x"; "tree+"; "Tree"; "tree,tree+fp";
      "tree+fault:nope";
    ];
  (* there is no contention-manager token, whatever its value, and no
     range-array capacity token: the capacity is a constant *)
  List.iter
    (fun bad ->
      match Config.of_string bad with
      | Ok _ -> Alcotest.failf "%S parsed" bad
      | Error m ->
          check (bad ^ ": unknown token, names the grammar") true
            (String.starts_with ~prefix:"unknown token" m
            && mentions m (Config.grammar ())))
    [ "tree+cm:karma"; "tree+cm:backoff"; "tree+cm:nope"; "tree+cap:8" ]

(* [Config.grammar] is built from the token table, so every token a
   spelling can print is in it, and nothing else is. *)
let test_config_grammar () =
  (* the keys of the [+key] or [+key:value] words in [s] *)
  let keys s =
    List.concat_map
      (fun word ->
        List.tl (String.split_on_char '+' word)
        |> List.map (fun tok -> List.hd (String.split_on_char ':' tok)))
      (String.split_on_char ' ' s)
  in
  let grammar_keys = keys (Config.grammar ()) in
  List.iter
    (fun (_, spelling) ->
      List.iter
        (fun key ->
          check (spelling ^ ": +" ^ key ^ " in the grammar") true
            (List.mem key grammar_keys))
        (keys spelling))
    golden_configs;
  check_int "one entry per token" 12 (List.length grammar_keys);
  check "no contention-manager token" false (List.mem "cm" grammar_keys)

let gen_config =
  let open QCheck.Gen in
  let* analysis =
    oneofl
      Config.(
        [ Baseline; Compiler ]
        @ List.map (fun b -> Runtime b) Alloc_log.all_backends)
  and* check_stack = bool
  and* check_heap = bool
  and* on_reads = bool
  and* on_writes = bool
  and* fastpath = bool
  and* tvalidate = bool
  and* static_filter = bool
  and* audit = bool
  and* orec_bits = int_range 4 24
  and* fault = opt (oneofl Fault.all)
  and* fences = bool
  and* lazy_versioning = bool
  and* durable = bool
  and* wal_group = int_range 1 64
  and* ebr = bool in
  return
    {
      Config.analysis;
      scope = { Config.check_stack; check_heap; on_reads; on_writes };
      fastpath;
      tvalidate;
      static_filter;
      audit;
      orec_bits;
      fault;
      fences;
      lazy_versioning;
      durable;
      wal_group;
      ebr;
    }

let prop_config_roundtrip =
  QCheck.Test.make ~name:"of_string inverts to_string" ~count:2000
    (QCheck.make ~print:Config.to_string gen_config)
    (fun c -> Config.of_string (Config.to_string c) = Ok c)

(* ------------------------------------------------------------------ *)
(* Path prices                                                          *)

(* The simulator's price of each transactional path bench's calibrate
   section prints, checked against the Costs expression it prints
   beside it.  A price is the makespan difference of two one-thread
   runs of one transaction that differ only in the measured operations,
   divided by their count: begin, commit and the rest cancel.  The
   makespan pins in test_native say that something moved; these say
   which path. *)

let price_lines = 64

(* The makespan of one transaction under [cfg] calling [body tx lines],
   [lines] the first words of [price_lines] lines of an array block, one
   orec each. *)
let lines_makespan ?(cfg = Config.baseline) body =
  let w = Engine.create ~nthreads:1 cfg in
  let line = Orec.line_words in
  let cell = Alloc.alloc (Engine.global_arena w) (price_lines * line) in
  assert (Orec.line_words_at (Engine.orecs w) cell = line);
  let lines = Array.init price_lines (fun k -> cell + (k * line)) in
  (Engine.run_sim ~seed:1 w (fun th ->
       Txn.atomic th (fun tx -> body tx lines)))
    .Engine.makespan

(* The makespan of one transaction under [cfg] making [n] calls of
   [op tx b] on a block [b] it allocated. *)
let captured_makespan cfg n op =
  let w = Engine.create ~nthreads:1 cfg in
  (Engine.run_sim ~seed:1 w (fun th ->
       Txn.atomic th (fun tx ->
           let b = Txn.alloc tx price_lines in
           Txn.write tx b 1;
           for _ = 1 to n do
             op tx b
           done;
           Txn.free tx b)))
    .Engine.makespan

let price_read tx m = ignore (Txn.read tx m : int)
let price_write tx m = Txn.write tx m 1
let each_line op tx lines = Array.iter (op tx) lines

let fresh_read_price =
  Costs.read_barrier + Costs.commit_per_read + Costs.validate_per_read

(* Each line read at [m] and its line-mate [m + 1], then [passes] passes
   that re-read [m + 1] (forwarded) or alternate [m], [m + 1]
   (line-mate). *)
let rereads ~forwarded ~passes tx lines =
  each_line (fun tx m -> price_read tx m; price_read tx (m + 1)) tx lines;
  for p = 1 to passes do
    let d = if forwarded then 1 else (p + 1) land 1 in
    each_line (fun tx m -> price_read tx (m + d)) tx lines
  done

let check_price ~expected ~n ~base measured =
  Alcotest.(check (float 0.)) "cycles per operation" (float_of_int expected)
    (float_of_int (measured - base) /. float_of_int n)

let lines_price ?cfg ~expected op () =
  check_price ~expected ~n:price_lines
    ~base:(lines_makespan ?cfg (each_line (fun _ _ -> ())))
    (lines_makespan ?cfg (each_line op))

let reread_price ~forwarded () =
  check_price ~expected:Costs.read_owned ~n:(2 * price_lines)
    ~base:(lines_makespan (rereads ~forwarded ~passes:0))
    (lines_makespan (rereads ~forwarded ~passes:2))

let test_price_owned_write () =
  check_price
    ~expected:(Costs.write_barrier_owned + Costs.undo_log_entry)
    ~n:(price_lines * (Orec.line_words - 1))
    ~base:(lines_makespan (each_line price_write))
    (lines_makespan
       (each_line (fun tx m ->
            for d = 0 to Orec.line_words - 1 do
              price_write tx (m + d)
            done)))

let captured_price cfg ~expected op () =
  check_price ~expected ~n:price_lines
    ~base:(captured_makespan cfg 0 op)
    (captured_makespan cfg price_lines op)

let price_static_site = Site.declare ~write:false "stm.test.price_captured"

let static_price () =
  Site.set_captured price_static_site;
  captured_price Config.compiler ~expected:Costs.direct_access
    (fun tx b -> ignore (Txn.read_at ~site:price_static_site tx b : int))
    ()

(* An init-only read loads its word directly: no capture check and no
   read-log entry, so no validation or commit share either.  Under
   +lazy the write-set probe still runs first. *)
let price_init_site =
  Site.declare ~init_only:true ~write:false "stm.test.price_init_only"

let init_read_price ?cfg ~expected () =
  lines_price ?cfg ~expected
    (fun tx m -> ignore (Txn.read_at ~site:price_init_site tx m : int))
    ()

(* Each runtime backend without +fp: an access its check elides (a stack
   check, then a probe of a one-block log that hits), read and written,
   and a fresh read after the same checks miss an empty log. *)
let backend_prices b =
  let cfg = Config.runtime b and name = Alloc_log.backend_name b in
  let one_block = Alloc_log.create b in
  ignore (Alloc_log.add one_block ~lo:64 ~hi:(64 + price_lines)
           : Alloc_log.added);
  let hit =
    Costs.stack_check + Alloc_log.search_cost one_block + Costs.direct_access
  in
  let case what f = Alcotest.test_case (what ^ " (" ^ name ^ ")") `Quick f in
  [
    case "read captured" (captured_price cfg ~expected:hit price_read);
    case "write captured" (captured_price cfg ~expected:hit price_write);
    case "read after failed check"
      (lines_price ~cfg
         ~expected:
           (Costs.stack_check
           + Alloc_log.search_cost (Alloc_log.create b)
           + fresh_read_price)
         price_read);
  ]

let price_cases =
  [
    Alcotest.test_case "read fresh" `Quick
      (lines_price ~expected:fresh_read_price price_read);
    Alcotest.test_case "read line-mate" `Quick
      (reread_price ~forwarded:false);
    Alcotest.test_case "read forwarded" `Quick (reread_price ~forwarded:true);
    Alcotest.test_case "read-for-write" `Quick
      (lines_price
         ~expected:(Costs.write_barrier_acquire + Costs.commit_per_orec)
         (fun tx m ->
           ignore (Txn.read_for_write_at ~site:Site.anonymous_read tx m : int)));
    Alcotest.test_case "write fresh" `Quick
      (lines_price
         ~expected:
           (Costs.write_barrier_acquire + Costs.undo_log_entry
          + Costs.commit_per_orec)
         price_write);
    Alcotest.test_case "write owned (line-mate)" `Quick test_price_owned_write;
    Alcotest.test_case "read elided (compiler, static)" `Quick static_price;
    Alcotest.test_case "read init-only" `Quick
      (init_read_price ~expected:Costs.direct_access);
    Alcotest.test_case "read init-only (+lazy)" `Quick
      (init_read_price
         ~cfg:(Config.with_lazy (Config.runtime Alloc_log.Tree))
         ~expected:(Costs.redo_summary_check + Costs.direct_access));
    Alcotest.test_case "read elided (tree+fp, check included)" `Quick
      (captured_price
         (Config.with_fastpath (Config.runtime Alloc_log.Tree))
         ~expected:
           (Costs.site_check + Costs.stack_check + Costs.capture_summary_check
          + Costs.direct_access)
         price_read);
  ]
  @ List.concat_map backend_prices Alloc_log.all_backends

let qsuite name tests = (name, List.map Qc.to_alcotest tests)

let () =
  Alcotest.run "stm"
    [
      ( "basics",
        config_cases "commit visible" test_commit_visible
        @ config_cases "abort rolls back" test_abort_rolls_back
        @ config_cases "exception rolls back" test_exception_rolls_back
        @ config_cases "read your writes" test_read_your_writes
        @ config_cases "waw single undo" test_waw_single_undo );
      ( "allocation",
        config_cases "alloc commit keeps" test_alloc_commit_keeps
        @ config_cases "alloc abort frees" test_alloc_abort_frees
        @ config_cases "free deferred on abort" test_free_deferred_on_abort
        @ config_cases "alloc+free same txn" test_alloc_then_free_same_txn
        @ config_cases "alloca restored" test_alloca_restored_on_abort
        @ [
            Alcotest.test_case "free own written block [baseline]" `Quick
              test_free_own_block_baseline;
            Alcotest.test_case "free own written block [baseline+lazy]" `Quick
              test_free_own_block_baseline_lazy;
            Alcotest.test_case "free own written block [tree+fp+lazy bypassed]"
              `Quick test_free_own_block_bypassed;
          ] );
      ( "site tier",
        [
          Alcotest.test_case "window threshold" `Quick
            test_tier_window_threshold;
          Alcotest.test_case "re-enabled within a window" `Quick
            test_tier_reenables_within_a_window;
          Alcotest.test_case "ids beyond the table" `Quick
            test_tier_ids_beyond_table;
          Alcotest.test_case "in the read barrier" `Quick test_tier_in_barrier;
          Alcotest.test_case "late site always checked" `Quick
            test_tier_late_site_checked;
        ] );
      ( "forwarding",
        [
          Alcotest.test_case "value guard [heap,w]" `Quick
            test_forward_guard_eager;
          Alcotest.test_case "value guard [heap,w+lazy]" `Quick
            test_forward_guard_lazy;
          Alcotest.test_case "value guard [tree+fp bypassed]" `Quick
            test_forward_guard_bypassed;
        ] );
      ( "elision",
        [
          Alcotest.test_case "runtime elides heap" `Quick
            test_runtime_elides_heap;
          Alcotest.test_case "runtime elides stack" `Quick
            test_runtime_elides_stack;
          Alcotest.test_case "write-only scope" `Quick
            test_runtime_scope_write_only;
          Alcotest.test_case "baseline never elides" `Quick
            test_baseline_never_elides;
          Alcotest.test_case "shared not elided" `Quick test_shared_not_elided;
          Alcotest.test_case "compiler elides by site" `Quick
            test_compiler_elides_by_site;
          Alcotest.test_case "hybrid skips checks" `Quick
            test_hybrid_skips_checks_on_shared_sites;
          Alcotest.test_case "private annotation" `Quick
            test_private_annotation_elides;
          Alcotest.test_case "audit classification" `Quick
            test_audit_classification;
          Alcotest.test_case "audit classification under nesting" `Quick
            test_audit_nested_scopes;
        ] );
      ( "nesting",
        [
          Alcotest.test_case "nested commit" `Quick test_nested_commit;
          Alcotest.test_case "partial abort" `Quick test_nested_partial_abort;
          Alcotest.test_case "child allocs freed" `Quick
            test_nested_abort_frees_child_allocs;
          Alcotest.test_case "capture relative to innermost" `Quick
            test_nested_capture_relative_to_innermost;
          Alcotest.test_case "child alloc captured in child" `Quick
            test_nested_child_alloc_captured_in_child;
          Alcotest.test_case "commit merges capture" `Quick
            test_nested_commit_merges_capture;
        ]
        @ config_cases ~configs:[ Config.baseline; lazy_baseline ]
            "nested WAW partial abort" test_nested_waw_partial_abort );
      ( "concurrency",
        config_cases "sim counter atomicity" test_sim_counter_atomicity
        @ config_cases "sim bank conservation" test_sim_bank_conservation
        @ [
            Alcotest.test_case "sim deterministic" `Quick test_sim_deterministic;
            Alcotest.test_case "captured list build" `Quick
              test_sim_conflicting_allocs_capture;
            Alcotest.test_case "native single thread" `Quick
              test_native_single_thread;
            Alcotest.test_case "native two domains" `Quick
              test_native_two_domains;
          ] );
      ( "tvalidate",
        [
          Alcotest.test_case "readonly fast commit" `Quick
            test_tv_readonly_fast_commit;
          Alcotest.test_case "writer skips scan" `Quick
            test_tv_writer_skips_scan;
          Alcotest.test_case "snapshot extension" `Quick
            test_tv_snapshot_extension;
        ]
        @ List.map Qc.to_alcotest [ prop_tvalidate_model ] );
      ( "rfw",
        [
          Alcotest.test_case "acquires once, logs no read" `Quick
            test_rfw_acquires_once;
          Alcotest.test_case "logged orec forwards" `Quick
            test_rfw_logged_forwards;
          Alcotest.test_case "lazy acquires at the read" `Quick
            test_rfw_lazy_acquires;
          Alcotest.test_case "tv newer version extends" `Quick
            test_rfw_tv_extends;
          Alcotest.test_case "tv invalid read set aborts" `Quick
            test_rfw_tv_invalid_aborts;
        ] );
      ( "rescue",
        [
          Alcotest.test_case "line-mate commit rescued" `Quick
            test_linemate_commit_rescued;
          Alcotest.test_case "same-word commit aborts" `Quick
            test_same_word_commit_aborts;
          Alcotest.test_case "two words not rescued" `Quick
            test_two_words_not_rescued;
        ] );
      ( "line-mate",
        [
          Alcotest.test_case "proved by one orec load" `Quick
            test_line_mate_read;
          Alcotest.test_case "moved orec takes the full barrier" `Quick
            test_line_mate_moved_orec;
          Alcotest.test_case "1-thread makespan identity" `Quick
            test_line_mate_identity;
          Alcotest.test_case "eager abort releases a fresh word" `Quick
            test_abort_word;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "fuel forces validation" `Quick
            test_fuel_forces_validation;
          Alcotest.test_case "fuel armed by default" `Quick
            test_fuel_armed_by_default;
          Alcotest.test_case "sandbox bounds propagate when valid" `Quick
            test_sandbox_bounds_error_propagates;
          Alcotest.test_case "phantom exceptions sandboxed" `Quick
            test_phantom_exception_sandboxed;
          Alcotest.test_case "spurious-abort contained" `Quick
            test_fault_spurious_abort_contained;
          Alcotest.test_case "alloc-log-drop contained" `Quick
            test_fault_alloc_log_drop_contained;
          Alcotest.test_case "stale-read potent" `Quick
            test_fault_stale_read_potent;
          Alcotest.test_case "cm policies correct" `Quick
            test_cm_policies_correct_under_contention;
          Alcotest.test_case "attempt resets after failure" `Quick
            test_attempt_resets_after_failure;
          Alcotest.test_case "attempt numbers" `Quick test_attempt_numbers;
          Alcotest.test_case "max consecutive aborts" `Quick
            test_max_consec_aborts;
          Alcotest.test_case "backoff ends at release" `Quick
            test_backoff_ends_at_release;
          Alcotest.test_case "backoff full window while held" `Quick
            test_backoff_full_window_while_held;
          Alcotest.test_case "backoff blocker cleared" `Quick
            test_backoff_blocker_cleared;
          Alcotest.test_case "wait extended to the break-even" `Quick
            test_wait_extended;
          Alcotest.test_case "doomed wait spins out" `Quick test_wait_doomed;
          Alcotest.test_case "owner keeps spin_limit" `Quick
            test_wait_owner_short;
          Alcotest.test_case "wait ends at the budget" `Quick
            test_wait_budget_spent;
        ]
        @ List.map Qc.to_alcotest [ prop_abort_runs ] );
      ( "private_log",
        [
          Alcotest.test_case "annotate" `Quick test_private_annotate;
          Alcotest.test_case "persists" `Quick test_private_persists;
          Alcotest.test_case "zero-size rejected" `Quick test_private_zero_size;
          Alcotest.test_case "overlap rejected" `Quick
            test_private_overlap_rejected;
        ] );
      qsuite "redo" [ prop_write_set_model ];
      ( "lazy",
        [
          Alcotest.test_case "defers stores" `Quick test_lazy_defers_stores;
          Alcotest.test_case "captured writes skip buffer" `Quick
            test_lazy_captured_writes_skip_buffer;
          Alcotest.test_case "nested partial abort restores buffer" `Quick
            test_lazy_nested_partial_abort_restores_buffer;
          Alcotest.test_case "nested abort truncates child inserts" `Quick
            test_lazy_nested_abort_truncates_child_inserts;
          Alcotest.test_case "waw single publish" `Quick
            test_lazy_waw_single_publish;
        ]
        @ List.map Qc.to_alcotest [ prop_lazy_read_own_write ] );
      ( "wal",
        [
          Alcotest.test_case "crash recovery prefix-consistent" `Quick
            test_crash_recovery_prefix_consistent;
          Alcotest.test_case "crash torture (30 seeds)" `Slow
            test_crash_recovery_torture;
          Alcotest.test_case "kill-anywhere recovery" `Quick
            test_kill_anywhere_recovery;
          Alcotest.test_case "torn checkpoint falls back" `Quick
            test_torn_checkpoint_falls_back;
          Alcotest.test_case "wal skips = elided writes" `Quick
            test_wal_skips_equal_elided_writes;
          Alcotest.test_case "same write set on both engines" `Quick
            test_wal_write_set_same_on_both_engines;
          Alcotest.test_case "commit bytes match the codec" `Quick
            test_wal_commit_bytes_match_codec;
          Alcotest.test_case "recovery keeps granules" `Quick
            test_wal_recovery_keeps_granules;
          Alcotest.test_case "private store logged raw and replayed" `Quick
            (private_store_under_wal ~abort:false);
          Alcotest.test_case "private store survives an abort" `Quick
            (private_store_under_wal ~abort:true);
          Alcotest.test_case "short checkpoint frame is corrupt" `Quick
            test_wal_short_checkpoint_corrupt;
          Alcotest.test_case "checkpoint streams the image" `Quick
            test_wal_checkpoint_streams_image;
        ]
        @ List.map Qc.to_alcotest
            [
              prop_wal_roundtrip;
              prop_wal_bitflip_rejected;
              prop_wal_truncation_torn;
              prop_wal_replay_order_insensitive;
            ] );
      ( "reclaim",
        [
          Alcotest.test_case "advance gated on active observers" `Quick
            test_reclaim_advance_gated;
          Alcotest.test_case "two grace periods hold limbo" `Quick
            test_reclaim_two_grace_periods;
          Alcotest.test_case "flush releases everything" `Quick
            test_reclaim_flush_unconditional;
          Alcotest.test_case "end-of-run allocator parity" `Quick
            test_reclaim_engine_parity;
          Alcotest.test_case "quiesce only outside transactions" `Quick
            test_quiesce_outside_transactions;
        ] );
      ( "config",
        [
          Alcotest.test_case "golden spellings" `Quick
            (check_golden golden_configs);
          Alcotest.test_case "golden alias fault cells" `Quick
            (check_golden golden_fault_cells);
          Alcotest.test_case "any token order" `Quick test_config_any_order;
          Alcotest.test_case "rejections" `Quick test_config_rejects;
          Alcotest.test_case "grammar names every token" `Quick
            test_config_grammar;
        ]
        @ List.map Qc.to_alcotest [ prop_config_roundtrip ] );
      ("path prices", price_cases);
      qsuite "invariants" (List.map prop_sim_invariant all_configs);
      qsuite "torture" (List.map prop_stm_torture all_configs);
    ]
