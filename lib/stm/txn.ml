module Memory = Captured_tmem.Memory
module Tstack = Captured_tmem.Tstack
module Alloc = Captured_tmem.Alloc
module Alloc_log = Captured_core.Alloc_log
module Private_log = Captured_core.Private_log
module Site = Captured_core.Site
module Platform = Captured_sim.Platform
module Prng = Captured_util.Prng

exception Retry_conflict
exception User_abort

(* ------------------------------------------------------------------ *)
(* Event tracing (schedule-exploration checker hook)                   *)

type access_class =
  | Instrumented
  | Elided_static
  | Elided_stack
  | Elided_heap
  | Elided_private

type event =
  | Ev_begin of { attempt : int }
  | Ev_read of { addr : int; value : int; cls : access_class }
  | Ev_write of { addr : int; value : int; cls : access_class }
  | Ev_alloc of { addr : int; size : int }
  | Ev_alloca of { addr : int; size : int }
  | Ev_free of { addr : int }
  | Ev_scope_begin
  | Ev_scope_commit
  | Ev_scope_abort
  | Ev_commit
  | Ev_abort of { user : bool }
  | Ev_raw_write of { addr : int; value : int }

(* No-op by default: barriers test the ref with one load and construct no
   event.  Write/alloc/commit/abort emissions sit right next to the memory
   effect they report, with no virtual-cycle charge (= no scheduling point)
   in between, so the recorded order matches the memory-effect order.  A
   read's event may land a few scheduling points after the load itself
   (the barrier charges cycles post-load); the oracle only relies on reads
   being no {e earlier} than their recorded instant's transaction begin. *)
let tracer : (int -> event -> unit) option ref = ref None
let set_tracer f = tracer := f

(* For cold sites (begin/commit/abort/alloc); hot barriers inline the
   match so disabled tracing allocates nothing. *)
let emit tid ev = match !tracer with None -> () | Some f -> f tid ev

type thread = {
  tid : int;
  platform : Platform.t;
  memory : Memory.t;
  stack : Tstack.t;
  arena : Alloc.t;
  orecs : Orec.t;
  config : Config.t;
  (* Validation clock, fixed for the thread's lifetime by [config]. *)
  clock : Config.clock;
  stats : Stats.t;
  private_log : Private_log.t;
  prng : Prng.t;
  cm : Cm.t;
  (* The orec word this thread's acquisitions store.  An orec holds it
     exactly while the current attempt owns the record: every attempt
     releases all it acquired before the next begins. *)
  lock_word : int;
  (* Private target for the debug read-barrier fence (Config.fences). *)
  fence_dummy : int Atomic.t;
  (* Durable transactions: the shared write-ahead log, when attached
     ([Engine.attach_wal]).  [None] makes every WAL site free. *)
  wal : Wal.t option;
  (* Epoch-based reclamation (Config.ebr): this thread's announcement
     slot + limbo list.  [None] makes every EBR site free — non-ebr
     configurations draw no PRNG, consume no cycles, so their schedules
     stay bit-identical. *)
  reclaim : Reclaim.t option;
  (* +fp site tier: per-site hit windows deciding which sites skip the
     capture check (thread-owned; sized from the sites declared so far). *)
  site_tier : Site_tier.t;
  mutable active : tx option;
}

and tx = {
  thread : thread;
  (* read set: distinct orecs with the word observed first, indexed by
     orec in [read_index]; beside each, the address and value last read
     under that orec (read-after-read forwarding, [full_read]) *)
  mutable read_orecs : int array;
  mutable read_words : int array;
  mutable read_addrs : int array;
  mutable read_vals : int array;
  mutable n_reads : int;
  read_index : Read_map.t;
  (* undo log *)
  mutable undo_addrs : int array;
  mutable undo_vals : int array;
  mutable n_undo : int;
  (* acquired orec indices, each with the unlocked word it replaced *)
  mutable acq_orecs : int array;
  mutable acq_prev : int array;
  mutable n_acq : int;
  waw : Waw.t;
  (* Redo buffer (lazy versioning): buffered writes live here until
     commit publishes them.  Always allocated (three small int arrays);
     stays empty in eager mode.  In lazy mode the undo log above is
     repurposed as a journal of overwritten *buffer* values — memory is
     never written before commit, so there is nothing to undo there. *)
  redo : Redo.t;
  top_capture_log : Alloc_log.t option; (* reused by the top-level scope *)
  top_audit_log : Alloc_log.t option;
  mutable scopes : scope list; (* innermost first; non-empty while live *)
  mutable live : bool;
  mutable attempts : int;
  (* Zombie-guard fuel left this attempt (see [burn_fuel]). *)
  mutable fuel : int;
  (* Snapshot timestamp (Global clock): the read set is known consistent
     at the instant the global clock held this value. *)
  mutable start_ts : int;
}

and scope = {
  start_sp : Memory.addr;
  undo_mark : int;
  (* Redo-log length at scope begin (lazy versioning): entries past the
     mark are this scope's fresh inserts, dropped on partial abort. *)
  redo_mark : int;
  capture_log : Alloc_log.t option;
  audit_log : Alloc_log.t option;
  (* Speculative allocations and deferred frees as grow-only parallel int
     arrays, oldest-first — list conses here would make [alloc]/[free]
     allocate on the OCaml heap inside the barrier-free fast path.  All
     newest-first effects (rollback freeing, deferred-free execution, the
     [unlog_alloc] scan) walk the arrays [downto]. *)
  mutable alloc_addrs : int array;
  mutable alloc_sizes : int array;
  mutable n_allocs : int;
  mutable dfree_addrs : int array;
  mutable n_dfrees : int;
}

(* ------------------------------------------------------------------ *)
(* Thread construction                                                 *)

let create_thread ~tid ~platform ~memory ~stack ~arena ~orecs ~config
    ?cm_shared ?wal ?reclaim_shared ~seed () =
  if tid < 0 || tid >= Stats.max_tids then
    invalid_arg "Txn.create_thread: tid does not fit the conflict-pair key";
  let cm_shared =
    match cm_shared with Some s -> s | None -> Cm.create_shared ()
  in
  {
    tid;
    platform;
    memory;
    stack;
    arena;
    orecs;
    config;
    clock = Config.clock config;
    stats = Stats.create ();
    private_log = Private_log.create ();
    prng = Prng.create seed;
    cm = Cm.create ~policy:config.Config.cm ~shared:cm_shared;
    lock_word = Orec.locked_word ~owner:tid;
    fence_dummy = Atomic.make 0;
    wal = (if config.Config.durable then wal else None);
    reclaim =
      (if config.Config.ebr then
         match reclaim_shared with
         | Some s -> Some (Reclaim.handle s ~slot:tid)
         | None -> None
       else None);
    site_tier = Site_tier.create ~sites:(Site.count ());
    active = None;
  }

(* A full (SC) fence: an SC read-modify-write on a thread-private atomic
   orders everything before it with everything after it.  Debug-only
   ([Config.fences]); see DESIGN.md §10 for why the STM is correct
   without it. *)
let fence th = ignore (Atomic.fetch_and_add th.fence_dummy 1 : int)

(* Barrier memory accesses: [sandbox_bounds] validates every address
   before the barrier body runs, so the unchecked accessors are in
   contract; audit mode keeps the checked ones as a cross-check. *)
let mem_get th addr =
  if th.config.Config.audit then Memory.get th.memory addr
  else Memory.unsafe_get th.memory addr

let mem_set th addr v =
  if th.config.Config.audit then Memory.set th.memory addr v
  else Memory.unsafe_set th.memory addr v

(* ------------------------------------------------------------------ *)
(* Growable int-pair logs                                              *)

(* Parallel logs grow together (each push site grows every array of its
   log at the same length); the push sites write the new entry directly
   into the (possibly fresh) arrays — no [ref] cells or tuples, these run
   on the barrier fast path. *)
let grow xs =
  let cap = Array.length xs in
  let xs' = Array.make (2 * cap) 0 in
  Array.blit xs 0 xs' 0 cap;
  xs'

let push_read tx oi word addr value =
  let n = tx.n_reads in
  if n >= Array.length tx.read_orecs then begin
    tx.read_orecs <- grow tx.read_orecs;
    tx.read_words <- grow tx.read_words;
    tx.read_addrs <- grow tx.read_addrs;
    tx.read_vals <- grow tx.read_vals
  end;
  Array.unsafe_set tx.read_orecs n oi;
  Array.unsafe_set tx.read_words n word;
  Array.unsafe_set tx.read_addrs n addr;
  Array.unsafe_set tx.read_vals n value;
  Read_map.add tx.read_index oi n;
  tx.n_reads <- n + 1

let push_undo tx addr value =
  let n = tx.n_undo in
  if n >= Array.length tx.undo_addrs then begin
    tx.undo_addrs <- grow tx.undo_addrs;
    tx.undo_vals <- grow tx.undo_vals
  end;
  Array.unsafe_set tx.undo_addrs n addr;
  Array.unsafe_set tx.undo_vals n value;
  tx.n_undo <- n + 1;
  tx.thread.stats.undo_entries <- tx.thread.stats.undo_entries + 1

let push_acq tx oi prev =
  let n = tx.n_acq in
  if n >= Array.length tx.acq_orecs then begin
    tx.acq_orecs <- grow tx.acq_orecs;
    tx.acq_prev <- grow tx.acq_prev
  end;
  Array.unsafe_set tx.acq_orecs n oi;
  Array.unsafe_set tx.acq_prev n prev;
  tx.n_acq <- n + 1

(* Scope alloc/deferred-free logs.  Scopes start with this shared empty
   array (a scope is born on every transaction attempt; most never
   allocate) and grow on first use. *)
let empty_ints : int array = [||]

let push_alloc scope addr size =
  let n = scope.n_allocs in
  let cap = Array.length scope.alloc_addrs in
  if n >= cap then begin
    let cap' = if cap = 0 then 8 else 2 * cap in
    let a = Array.make cap' 0 and s = Array.make cap' 0 in
    Array.blit scope.alloc_addrs 0 a 0 cap;
    Array.blit scope.alloc_sizes 0 s 0 cap;
    scope.alloc_addrs <- a;
    scope.alloc_sizes <- s
  end;
  scope.alloc_addrs.(n) <- addr;
  scope.alloc_sizes.(n) <- size;
  scope.n_allocs <- n + 1

let push_dfree scope addr =
  let n = scope.n_dfrees in
  let cap = Array.length scope.dfree_addrs in
  if n >= cap then begin
    let a = Array.make (if cap = 0 then 8 else 2 * cap) 0 in
    Array.blit scope.dfree_addrs 0 a 0 cap;
    scope.dfree_addrs <- a
  end;
  scope.dfree_addrs.(n) <- addr;
  scope.n_dfrees <- n + 1

(* ------------------------------------------------------------------ *)
(* Transaction object (one per thread, reused across transactions)     *)

let make_tx th =
  let cfg = th.config in
  let runtime_heap =
    match cfg.analysis with
    | Config.Runtime _ -> cfg.scope.Config.check_heap
    | Config.Baseline | Config.Compiler -> false
  in
  let top_capture_log =
    if runtime_heap then
      match cfg.analysis with
      | Config.Runtime backend ->
          Some
            (Alloc_log.create ~array_capacity:cfg.array_capacity
               ~fastpath:cfg.fastpath backend)
      | Config.Baseline | Config.Compiler -> None
    else None
  in
  let top_audit_log =
    if cfg.audit then Some (Alloc_log.create Alloc_log.Tree) else None
  in
  {
    thread = th;
    read_orecs = Array.make 64 0;
    read_words = Array.make 64 0;
    read_addrs = Array.make 64 0;
    read_vals = Array.make 64 0;
    n_reads = 0;
    read_index = Read_map.create ();
    undo_addrs = Array.make 64 0;
    undo_vals = Array.make 64 0;
    n_undo = 0;
    acq_orecs = Array.make 16 0;
    acq_prev = Array.make 16 0;
    n_acq = 0;
    waw = Waw.create ();
    redo = Redo.create ();
    top_capture_log;
    top_audit_log;
    scopes = [];
    live = false;
    attempts = 0;
    fuel = 0;
    start_ts = 0;
  }

let innermost tx =
  match tx.scopes with
  | s :: _ -> s
  | [] -> invalid_arg "Txn: no active scope"

let depth tx = List.length tx.scopes

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)

(* A logged read holds while its orec still carries the logged word.  An
   orec the attempt read and then acquired carries [lock_word]; the
   acquisition re-logs the read as [lock_word] when the version it
   replaced is the one read ([acquire_loop]), so such a read holds
   exactly when the write did not follow a concurrent commit. *)
let read_entry_valid th oi word = Orec.get th.orecs oi = word

(* An attempt that has acquired nothing owns nothing, which spares
   read-only prefixes the orec load. *)
let owns tx oi =
  tx.n_acq > 0 && Orec.get tx.thread.orecs oi = tx.thread.lock_word

let charge_validation th cost =
  th.platform.consume cost;
  th.stats.validation_cycles <- th.stats.validation_cycles + cost

(* [fault_fires th k] — true when [k] is the configured injected fault
   and its per-opportunity PRNG draw fires.  Configurations without fault
   [k] make no draw, so their streams (and schedules) are untouched. *)
let fault_fires th kind =
  match th.config.Config.fault with
  | Some k when k = kind ->
      let fired = Prng.chance th.prng ~percent:(Fault.rate kind) in
      if fired then
        th.stats.faults_injected <- th.stats.faults_injected + 1;
      fired
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Epoch-based reclamation hooks (Config.ebr)                          *)

(* One reclaim sweep: try to advance the global epoch, then release
   every limbo entry whose two grace periods have elapsed back to this
   thread's arena (same "freeing thread keeps it" placement as the
   immediate free it replaces).  A sweep that leaves entries behind is
   a stall — some in-flight reader is still holding the epoch back. *)
let ebr_service th r =
  th.platform.consume Costs.ebr_advance;
  if Reclaim.try_advance (Reclaim.shared_of r) then
    th.stats.epoch_advances <- th.stats.epoch_advances + 1;
  ignore
    (Reclaim.drain r ~free:(fun ~addr ~size:_ -> Alloc.free th.arena addr)
      : int);
  if Reclaim.pending r > 0 then
    th.stats.reclaim_stalls <- th.stats.reclaim_stalls + 1

(* ------------------------------------------------------------------ *)
(* Durable-transaction support (write-ahead log)                        *)

(* Injected process death.  The exception deliberately escapes the
   retry loop ([atomic] only catches [Retry_conflict]) and the fiber:
   the simulated process is gone, and the harness moves to recovery. *)
let wal_crash th =
  (match th.wal with Some w -> Wal.crash w | None -> ());
  raise Wal.Crashed

(* Crash-point sites only exist when a WAL is attached; the [&&] keeps
   configurations without the fault (or without durability) from ever
   drawing the PRNG, so their schedules are untouched. *)
let crash_point th kind = if th.wal <> None && fault_fires th kind then wal_crash th

(* Append a raw (immediately-visible) store to the log.  Used for
   non-transactional stores and for private-elided writes inside a
   transaction — both take effect now and survive aborts, so recovery
   must replay them unconditionally, in emission order.  All cycles are
   charged *before* the device is touched: the append is then adjacent
   to the store and its trace event with no scheduling point between. *)
let wal_raw th addr value =
  match th.wal with
  | None -> ()
  | Some w ->
      let will_sync = Wal.pending_records w + 1 >= Wal.group w in
      th.platform.consume
        ((Costs.wal_append_per_word * Wal.raw_record_words)
        + if will_sync then Costs.wal_fsync else 0);
      let bytes, synced = Wal.append_raw w ~addr ~value in
      th.stats.wal_records <- th.stats.wal_records + 1;
      th.stats.wal_bytes <- th.stats.wal_bytes + bytes;
      if synced then th.stats.wal_fsyncs <- th.stats.wal_fsyncs + 1

(* Top-level recursion: a local [let rec] would close over the tx and
   allocate on every validation (which [burn_fuel] runs from the
   barrier path). *)
let rec reads_valid th orecs words n k =
  k >= n
  || (read_entry_valid th (Array.unsafe_get orecs k) (Array.unsafe_get words k)
     && reads_valid th orecs words n (k + 1))

let validate tx =
  let th = tx.thread in
  th.stats.validations <- th.stats.validations + 1;
  charge_validation th (Costs.validate_per_read * tx.n_reads);
  (* Injected fault (checker self-test): report success without looking. *)
  (Config.has_fault th.config Fault.Skip_validation
  && begin
       th.stats.faults_injected <- th.stats.faults_injected + 1;
       true
     end)
  || reads_valid th tx.read_orecs tx.read_words tx.n_reads 0

(* Snapshot extension (lazy snapshot algorithm, Global clock only): a
   version newer than the snapshot was observed.  The clock is sampled
   first, then one full validation proves every logged read still holds
   — orec versions only grow, so "valid after the sample" implies "valid
   at the sample" — and the sample becomes the new [start_ts] instead of
   the attempt aborting. *)
let extend_snapshot tx =
  let th = tx.thread in
  let now = Orec.clock th.orecs in
  th.stats.snapshot_extensions <- th.stats.snapshot_extensions + 1;
  charge_validation th Costs.snapshot_extend;
  if not (validate tx) then raise Retry_conflict;
  tx.start_ts <- now

(* The zombie guard.  Under the Global clock it is O(1): an unmoved
   clock means nothing committed since the snapshot, so the read set
   cannot have been invalidated.  Scan has no global instant to compare
   against, so the guard is a full validation. *)
let revalidate tx =
  let th = tx.thread in
  match th.clock with
  | Global ->
      charge_validation th Costs.tvalidate_check;
      if Orec.clock th.orecs > tx.start_ts then extend_snapshot tx
      else th.stats.validations_skipped <- th.stats.validations_skipped + 1
  | Scan -> if not (validate tx) then raise Retry_conflict

(* Validation fuel: the one bound on un-revalidated execution.  Every
   transactional operation burns one unit — owned, forwarded and
   capture-elided accesses and [tx_work] included, which no barrier slow
   path sees — so a zombie spinning on any of them dies within
   [Costs.fuel_budget] operations.  An empty tank forces the zombie
   guard and refills. *)
let burn_fuel tx =
  tx.fuel <- tx.fuel - 1;
  if tx.fuel = 0 then begin
    let th = tx.thread in
    tx.fuel <- Costs.fuel_budget;
    th.stats.fuel_exhaustions <- th.stats.fuel_exhaustions + 1;
    revalidate tx
  end

(* Zombie pointer sandbox: a transaction on an invalid snapshot can
   compute garbage addresses (e.g. chase a next-pointer a concurrent
   commit redirected into a freed block).  Catch them at the barrier,
   before memory is touched: if the snapshot is still valid the error is
   the program's own and propagates; if not, it is phantom fallout —
   silently abort and retry. *)
let sandbox_bounds tx addr =
  let th = tx.thread in
  if addr < 1 || addr >= Memory.size th.memory then begin
    th.stats.sandbox_bounds <- th.stats.sandbox_bounds + 1;
    if validate tx then
      invalid_arg (Printf.sprintf "Txn: address %d outside memory" addr)
    else raise Retry_conflict
  end

(* ------------------------------------------------------------------ *)
(* Capture analysis in barriers (paper, Figure 2)                      *)

(* Elision verdicts, int-encoded — a variant with payloads would allocate
   a block per barrier invocation.  Low 3 bits: class; rest: the
   (failed-)check cycles to charge on top of the access. *)
let keep_code = 0
let elide_static_code = 1
let elide_stack_code = 2
let elide_heap_code = 3
let elide_private_code = 4
let elision ~cls ~cost = (cost lsl 3) lor cls
let elision_class e = e land 7
let elision_cost e = e asr 3

(* The per-class counter of an elided ([cls <> keep_code]) access. *)
let count_elided_read (st : Stats.t) cls =
  if cls = elide_stack_code then
    st.reads_elided_stack <- st.reads_elided_stack + 1
  else if cls = elide_heap_code then
    st.reads_elided_heap <- st.reads_elided_heap + 1
  else if cls = elide_private_code then
    st.reads_elided_private <- st.reads_elided_private + 1
  else st.reads_elided_static <- st.reads_elided_static + 1

let count_elided_write (st : Stats.t) cls =
  if cls = elide_stack_code then
    st.writes_elided_stack <- st.writes_elided_stack + 1
  else if cls = elide_heap_code then
    st.writes_elided_heap <- st.writes_elided_heap + 1
  else if cls = elide_private_code then
    st.writes_elided_private <- st.writes_elided_private + 1
  else st.writes_elided_static <- st.writes_elided_static + 1

(* Durable elision of an elided store: captured (stack/heap/static)
   stores need no WAL entry — stacks are transient and own-allocation
   images ride in the commit record.  Private stores are immediately
   visible shared state and survive aborts, so they are logged raw. *)
let wal_elided_store th cls addr v =
  if th.wal <> None then
    if cls = elide_private_code then wal_raw th addr v
    else th.stats.wal_skips <- th.stats.wal_skips + 1

(* One hierarchical heap capture check: classify the probe, charge the
   tier that answered, and account it.  Without fastpath the hierarchy
   degenerates to the bare backend probe at its usual price.  Result is
   int-encoded (bit 0: captured; rest: cycles) — a tuple would allocate
   on the barrier fast path. *)
let heap_capture_check th log ~lo ~hi =
  let outcome = Alloc_log.probe log ~lo ~hi in
  let st = th.stats in
  let cost =
    match outcome with
    | Alloc_log.Summary_reject ->
        st.Stats.capture_summary_rejects <-
          st.Stats.capture_summary_rejects + 1;
        Costs.capture_summary_check
    | Alloc_log.Mru_hit ->
        st.Stats.capture_mru_hits <- st.Stats.capture_mru_hits + 1;
        (* With the MRU tier skipped (filter backend or <=1 block) a hit
           can only come from an exact single-block envelope, where the
           MRU compare is against the same two words as the bounds
           compare — the summary price covers it. *)
        Costs.capture_summary_check
        + (if Alloc_log.mru_tier_active log then Costs.capture_mru_check
           else 0)
    | Alloc_log.Backend_hit | Alloc_log.Backend_miss ->
        st.Stats.capture_backend_probes <- st.Stats.capture_backend_probes + 1;
        (if Alloc_log.fastpath log then
           Costs.capture_summary_check
           + (if Alloc_log.mru_tier_active log then Costs.capture_mru_check
              else 0)
         else 0)
        + Alloc_log.search_cost log
  in
  st.Stats.capture_check_cycles <- st.Stats.capture_check_cycles + cost;
  let captured =
    match outcome with
    | Alloc_log.Mru_hit | Alloc_log.Backend_hit -> 1
    | Alloc_log.Summary_reject | Alloc_log.Backend_miss -> 0
  in
  (cost lsl 1) lor captured

let private_check th addr size cost =
  if Private_log.size th.private_log > 0 then
    let c = cost + Private_log.search_cost th.private_log in
    if Private_log.contains th.private_log ~addr ~size then
      elision ~cls:elide_private_code ~cost:c
    else elision ~cls:keep_code ~cost:c
  else elision ~cls:keep_code ~cost

(* The runtime stack and heap capture checks of one access: a stack or
   heap elision, or [keep_code]; either way the cost is [cost] plus what
   the checks charged. *)
let capture_check tx addr size ~cost =
  let th = tx.thread in
  let sc = th.config.Config.scope in
  let scope = innermost tx in
  if
    sc.check_stack
    && Tstack.in_live_range th.stack ~from_sp:scope.start_sp addr size
  then elision ~cls:elide_stack_code ~cost:(cost + Costs.stack_check)
  else begin
    let cost = if sc.check_stack then cost + Costs.stack_check else cost in
    match scope.capture_log with
    | Some log when sc.check_heap ->
        let r = heap_capture_check th log ~lo:addr ~hi:(addr + size) in
        let cost = cost + (r lsr 1) in
        elision ~cls:(if r land 1 = 1 then elide_heap_code else keep_code) ~cost
    | Some _ | None -> elision ~cls:keep_code ~cost
  end

(* Runtime analysis under +fp puts the site tier first: a site whose
   checks rarely hit is bypassed, and its access takes the same path as
   an access outside the check scope — private-log check, then the full
   barrier.  That is sound because the full barrier is correct for any
   address, captured or not (see [free] for the one hazard it had). *)
let try_elide tx addr size ~site ~is_write =
  let th = tx.thread in
  let cfg = th.config in
  match cfg.analysis with
  | Config.Compiler ->
      if Site.is_captured_static site then
        elision ~cls:elide_static_code ~cost:0
      else private_check th addr size 0
  | Config.Baseline -> private_check th addr size 0
  | Config.Runtime _ ->
      let sc = cfg.scope in
      let applies =
        (if is_write then sc.on_writes else sc.on_reads)
        && not (cfg.static_filter && Site.is_shared_static site)
      in
      if not applies then private_check th addr size 0
      else if cfg.fastpath && Site_tier.bypass th.site_tier site then begin
        th.stats.capture_site_bypasses <- th.stats.capture_site_bypasses + 1;
        private_check th addr size Costs.site_check
      end
      else begin
        let e =
          capture_check tx addr size
            ~cost:(if cfg.fastpath then Costs.site_check else 0)
        in
        let captured = elision_class e <> keep_code in
        if cfg.fastpath then Site_tier.record th.site_tier site ~hit:captured;
        if captured then e else private_check th addr size (elision_cost e)
      end

(* Audit-mode classification for Figure 8: a precise tree + the stack check
   decide captured-ness; [manual] sites are the paper's "required"
   estimate. *)
let audit_classify tx addr size ~site ~is_write =
  let th = tx.thread in
  let scope = innermost tx in
  let st = th.stats in
  let on_stack =
    Tstack.in_live_range th.stack ~from_sp:scope.start_sp addr size
  in
  let on_heap =
    (not on_stack)
    &&
    match scope.audit_log with
    | Some log -> Alloc_log.contains log ~lo:addr ~hi:(addr + size)
    | None -> false
  in
  let manual = (Site.meta site).Site.manual in
  if Site.is_captured_static site && not (on_stack || on_heap) then
    st.audit_static_violations <- st.audit_static_violations + 1;
  if is_write then
    if on_heap then st.audit_writes_heap <- st.audit_writes_heap + 1
    else if on_stack then st.audit_writes_stack <- st.audit_writes_stack + 1
    else if manual then st.audit_writes_required <- st.audit_writes_required + 1
    else st.audit_writes_other <- st.audit_writes_other + 1
  else if on_heap then st.audit_reads_heap <- st.audit_reads_heap + 1
  else if on_stack then st.audit_reads_stack <- st.audit_reads_stack + 1
  else if manual then st.audit_reads_required <- st.audit_reads_required + 1
  else st.audit_reads_other <- st.audit_reads_other + 1

(* ------------------------------------------------------------------ *)
(* Read barrier                                                        *)

(* Conflict accounting: one episode per wait (first spin only), keyed by
   the (waiter, owner) thread pair.  Pure counters — no cycle charges, no
   PRNG draws — so schedules are untouched. *)
let note_conflict th w =
  th.stats.conflict_episodes <- th.stats.conflict_episodes + 1;
  let owner = Orec.owner_of w in
  if owner <> th.tid then Stats.note_pair th.stats ~tid:th.tid ~peer:owner

(* One lock-wait spin on an orec found holding the locked word [w]; the
   attempt self-aborts once the contention manager's patience is spent. *)
let spin_on_lock th w spins =
  th.stats.lock_waits <- th.stats.lock_waits + 1;
  if spins = 0 then note_conflict th w;
  if spins >= Cm.spin_patience th.cm then begin
    th.stats.spin_aborts <- th.stats.spin_aborts + 1;
    raise Retry_conflict
  end;
  th.platform.consume Costs.lock_spin;
  th.platform.yield ()

(* [logged] is the orec's read-log position ([Read_map.find], -1 when
   fresh), probed once by [full_read]: only this thread adds entries, and
   nothing in the loop does before it returns. *)
let rec full_read_loop tx oi addr logged spins =
  let th = tx.thread in
  let w1 = Orec.get th.orecs oi in
  if Orec.is_locked w1 then begin
    spin_on_lock th w1 spins;
    full_read_loop tx oi addr logged (spins + 1)
  end
  else begin
    let v = mem_get th addr in
    (* Debug mode: pin the data load before the confirming orec load even
       under a hypothetically weaker model (see Config.fences). *)
    if th.config.Config.fences then fence th;
    if logged < 0 && fault_fires th Fault.Stale_read then begin
      (* Injected TOCTOU: open a scheduling window after the value load,
         then log whatever version the orec holds on the other side —
         skipping the w1=w2 sandwich and the +tv snapshot check.  If a
         commit lands in the window, [v] is stale yet the logged word is
         current, so commit-time validation passes a broken snapshot. *)
      th.platform.consume 1;
      let w2 = Orec.get th.orecs oi in
      if Orec.is_locked w2 then full_read_loop tx oi addr logged (spins + 1)
      else begin
        push_read tx oi w2 addr v;
        v
      end
    end
    else begin
    let w2 = Orec.get th.orecs oi in
    if w1 = w2 then begin
      (* Dedup: log each orec once; observing a *different* version than
         first logged is already a conflict.  The entry's forwarding pair
         moves to this read: (addr, v) is as current under the logged
         word as the pair it replaces. *)
      if logged >= 0 then begin
        if tx.read_words.(logged) <> w1 then raise Retry_conflict;
        Array.unsafe_set tx.read_addrs logged addr;
        Array.unsafe_set tx.read_vals logged v;
        v
      end
      else begin
        (* One compare per *fresh* read keeps the snapshot invariant:
           version <= start_ts means the line is untouched since the
           snapshot, so no logging-time revalidation is ever needed.
           (A repeat read of a logged orec with the same word needs no
           check — it passed this test at first read and [start_ts]
           only grows.)  A newer version extends the snapshot (which
           validates the reads logged so far) — but [v] was loaded
           before the extension sampled the clock, and a commit to this
           very line can land in between, leaving (v, w1) stale inside
           the extended snapshot.  Re-run the read under the new
           [start_ts] instead of logging the pre-extension pair. *)
        let ts = Orec.version_of w1 in
        let newer =
          match th.clock with
          | Scan -> false
          | Global ->
              charge_validation th Costs.ts_read_check;
              ts > tx.start_ts
        in
        if newer && not (Config.has_fault th.config Fault.Skip_validation)
        then begin
          extend_snapshot tx;
          full_read_loop tx oi addr logged spins
        end
        else begin
          push_read tx oi w1 addr v;
          v
        end
      end
    end
    else full_read_loop tx oi addr logged (spins + 1)
    end
  end

let full_read tx addr =
  let th = tx.thread in
  let oi = Orec.index_of th.orecs addr in
  if owns tx oi then begin
    th.platform.consume Costs.read_owned;
    mem_get th addr
  end
  else begin
    let logged = Read_map.find tx.read_index oi in
    if
      logged >= 0
      && Array.unsafe_get tx.read_addrs logged = addr
      && mem_get th addr = Array.unsafe_get tx.read_vals logged
    then begin
      (* Read-after-read forwarding: this attempt already read [addr]
         under the logged word, and the logged value is the one its
         snapshot holds — the first read's sandwich proved it current
         under that word, and every validation since re-checked the word
         — so the orec sandwich would only re-prove it.  Commit
         validation still catches a concurrent commit to the line.  The
         value guard is for this thread's own direct stores (elided
         captured or private writes, raw stores), which bump no orec yet
         can follow a full-barrier read (reads outside the check scope,
         or at a bypassed +fp site): memory that no longer holds the
         logged value takes the full path.  The price is an owned
         read's: the map lookup plus one data load.  Under Scan a fresh
         read is logged unchecked, so a zombie spinning on re-reads of
         it is ended only by the fuel [read_at] burns. *)
      th.stats.reads_forwarded <- th.stats.reads_forwarded + 1;
      th.platform.consume Costs.read_owned;
      Array.unsafe_get tx.read_vals logged
    end
    else begin
      th.platform.consume Costs.read_barrier;
      full_read_loop tx oi addr logged 0
    end
  end

(* Event class for an int-encoded elision verdict (traced paths only —
   constant constructors, so this is allocation-free anyway). *)
let access_class_of cls =
  if cls = keep_code then Instrumented
  else if cls = elide_stack_code then Elided_stack
  else if cls = elide_heap_code then Elided_heap
  else if cls = elide_private_code then Elided_private
  else Elided_static

let read_at ~site tx addr =
  let th = tx.thread in
  let st = th.stats in
  st.reads <- st.reads + 1;
  burn_fuel tx;
  sandbox_bounds tx addr;
  if fault_fires th Fault.Spurious_abort then raise Retry_conflict;
  if th.config.Config.audit then audit_classify tx addr 1 ~site ~is_write:false;
  (* Lazy versioning: probe the redo buffer *before* the capture check —
     one AND on the summary word when the buffer cannot hold the address.
     The order matters: a nested scope can buffer a write to memory an
     enclosing scope captured (and would elide), and the buffered value
     is newer than what memory holds. *)
  let redo_i =
    if
      th.config.Config.lazy_versioning
      && begin
           th.platform.consume Costs.redo_summary_check;
           Redo.summary_hit tx.redo addr
         end
    then Redo.find tx.redo addr
    else -1
  in
  if redo_i >= 0 then begin
    st.redo_hits <- st.redo_hits + 1;
    th.platform.consume Costs.redo_lookup;
    let value = Redo.value tx.redo redo_i in
    (match !tracer with
    | None -> ()
    | Some f -> f th.tid (Ev_read { addr; value; cls = Instrumented }));
    value
  end
  else begin
    let e = try_elide tx addr 1 ~site ~is_write:false in
    let cls = elision_class e in
    let value =
      if cls = keep_code then begin
        th.platform.consume (elision_cost e);
        full_read tx addr
      end
      else begin
        count_elided_read st cls;
        th.platform.consume (elision_cost e + Costs.direct_access);
        mem_get th addr
      end
    in
    (match !tracer with
    | None -> ()
    | Some f -> f th.tid (Ev_read { addr; value; cls = access_class_of cls }));
    value
  end

let read tx addr = read_at ~site:Site.anonymous_read tx addr

(* ------------------------------------------------------------------ *)
(* Write barrier                                                       *)

let rec acquire_loop tx oi spins =
  let th = tx.thread in
  let w = Orec.get th.orecs oi in
  if Orec.is_locked w then begin
    spin_on_lock th w spins;
    acquire_loop tx oi (spins + 1)
  end
  else if Orec.try_lock th.orecs oi ~owner:th.tid ~expected:w then begin
    (* A read of this orec logged earlier in the attempt stays valid while
       the lock is held iff it read the version just replaced (see
       [read_entry_valid]). *)
    let logged = Read_map.find tx.read_index oi in
    if logged >= 0 && tx.read_words.(logged) = w then
      tx.read_words.(logged) <- th.lock_word;
    th.stats.orec_acquires <- th.stats.orec_acquires + 1;
    push_acq tx oi w
  end
  else acquire_loop tx oi (spins + 1)

let full_write tx addr v =
  let th = tx.thread in
  let oi = Orec.index_of th.orecs addr in
  if owns tx oi then th.platform.consume Costs.write_barrier_owned
  else begin
    th.platform.consume Costs.write_barrier_acquire;
    acquire_loop tx oi 0
  end;
  if Waw.note tx.waw addr then begin
    th.stats.waw_hits <- th.stats.waw_hits + 1;
    th.platform.consume Costs.waw_hit
  end
  else begin
    th.platform.consume Costs.undo_log_entry;
    push_undo tx addr (mem_get th addr)
  end;
  mem_set th addr v

(* Lazy-versioning write barrier.  Probe the buffer first (same ordering
   argument as the read barrier: an already-buffered address must stay
   buffered even where the capture check would now elide — publishing
   the stale buffered value over a newer direct store would lose the
   update).  On a miss, the capture hierarchy decides: captured writes
   skip the buffer entirely and store directly — the paper's payoff,
   counted in [redo_skips] — while shared writes append a fresh entry.
   Buffered writes touch no memory, so the eager barrier's bounds guard
   is not needed here; it moves to the direct-store path below and to
   commit-time acquisition ([lazy_acquire]). *)
let lazy_write tx addr v ~site =
  let th = tx.thread in
  let st = th.stats in
  th.platform.consume Costs.redo_summary_check;
  let i =
    if Redo.summary_hit tx.redo addr then Redo.find tx.redo addr else -1
  in
  if i >= 0 then begin
    (* Write-after-write in the buffer: update in place (publish order
       keeps the first-insert slot).  The first overwrite per scope
       journals the previous buffered value so a nested partial abort
       can restore it — dedup'd by the same WAW filter the eager undo
       log uses, and skipped entirely at top level, where abort drops
       the whole buffer wholesale. *)
    th.platform.consume Costs.redo_lookup;
    (if Waw.note tx.waw addr then begin
       st.waw_hits <- st.waw_hits + 1;
       th.platform.consume Costs.waw_hit
     end
     else
       match tx.scopes with
       | _ :: _ :: _ ->
           th.platform.consume Costs.undo_log_entry;
           push_undo tx addr (Redo.value tx.redo i)
       | _ -> ());
    Redo.set_value tx.redo i v;
    match !tracer with
    | None -> ()
    | Some f -> f th.tid (Ev_write { addr; value = v; cls = Instrumented })
  end
  else begin
    let e = try_elide tx addr 1 ~site ~is_write:true in
    let cls = elision_class e in
    if cls = keep_code then begin
      th.platform.consume (elision_cost e);
      (* Injected fault: the store is lost on the way into the buffer —
         the transaction commits without it. *)
      if fault_fires th Fault.Redo_drop then ()
      else begin
        th.platform.consume Costs.redo_insert;
        st.redo_inserts <- st.redo_inserts + 1;
        ignore (Waw.note tx.waw addr : bool);
        Redo.insert tx.redo addr v
      end;
      match !tracer with
      | None -> ()
      | Some f -> f th.tid (Ev_write { addr; value = v; cls = Instrumented })
    end
    else begin
      (* Captured/private/static: direct store, no buffer entry, no
         commit-time write-back.  Direct stores touch memory now, so
         the sandbox bounds guard applies here. *)
      sandbox_bounds tx addr;
      count_elided_write st cls;
      st.redo_skips <- st.redo_skips + 1;
      th.platform.consume (elision_cost e + Costs.direct_access);
      wal_elided_store th cls addr v;
      mem_set th addr v;
      match !tracer with
      | None -> ()
      | Some f ->
          f th.tid (Ev_write { addr; value = v; cls = access_class_of cls })
    end
  end

let write_at ~site tx addr v =
  let th = tx.thread in
  let st = th.stats in
  st.writes <- st.writes + 1;
  burn_fuel tx;
  if th.config.Config.lazy_versioning then begin
    if fault_fires th Fault.Spurious_abort then raise Retry_conflict;
    if th.config.Config.audit then
      audit_classify tx addr 1 ~site ~is_write:true;
    lazy_write tx addr v ~site
  end
  else begin
    sandbox_bounds tx addr;
    if fault_fires th Fault.Spurious_abort then raise Retry_conflict;
    if th.config.Config.audit then
      audit_classify tx addr 1 ~site ~is_write:true;
    let e = try_elide tx addr 1 ~site ~is_write:true in
    let cls = elision_class e in
    (if cls = keep_code then begin
       th.platform.consume (elision_cost e);
       full_write tx addr v
     end
     else begin
       count_elided_write st cls;
       th.platform.consume (elision_cost e + Costs.direct_access);
       wal_elided_store th cls addr v;
       mem_set th addr v
     end);
    match !tracer with
    | None -> ()
    | Some f ->
        f th.tid (Ev_write { addr; value = v; cls = access_class_of cls })
  end

let write tx addr v = write_at ~site:Site.anonymous_write tx addr v

(* ------------------------------------------------------------------ *)
(* Transactional allocation                                            *)

(* Capture-log insertion with promotion/saturation accounting; used for
   fresh allocations and for folding nested scopes into their parent. *)
let capture_log_add th log ~lo ~hi =
  match Alloc_log.add log ~lo ~hi with
  | Alloc_log.Kept -> ()
  | Alloc_log.Promoted ->
      th.stats.Stats.capture_promotions <-
        th.stats.Stats.capture_promotions + 1;
      th.platform.consume Costs.capture_promote
  | Alloc_log.Dropped ->
      th.stats.Stats.capture_log_overflows <-
        th.stats.Stats.capture_log_overflows + 1

let log_alloc tx addr size =
  let scope = innermost tx in
  push_alloc scope addr size;
  (match scope.capture_log with
  | Some log ->
      (* Injected fault: the allocation never reaches the capture log, so
         later accesses to the block miss the elision check and take full
         barriers — lost performance, never lost safety. *)
      if fault_fires tx.thread Fault.Alloc_log_drop then ()
      else begin
        tx.thread.platform.consume
          (Alloc_log.add_cost log ~lo:addr ~hi:(addr + size));
        capture_log_add tx.thread log ~lo:addr ~hi:(addr + size)
      end
  | None -> ());
  match scope.audit_log with
  | Some log -> ignore (Alloc_log.add log ~lo:addr ~hi:(addr + size) : Alloc_log.added)
  | None -> ()

let alloc tx n =
  let th = tx.thread in
  burn_fuel tx;
  th.platform.consume Costs.alloc;
  th.stats.tx_allocs <- th.stats.tx_allocs + 1;
  let addr = Alloc.alloc th.arena n in
  let size = Alloc.block_size th.arena addr in
  log_alloc tx addr size;
  emit th.tid (Ev_alloc { addr; size });
  addr

(* Newest-first scan (free usually targets the latest allocation); returns
   the block size, or -1 when this scope did not allocate [addr].  The
   surviving entries keep their relative order, so the arena free-list
   order downstream is untouched. *)
let rec alloc_index scope addr k =
  if k < 0 then -1
  else if scope.alloc_addrs.(k) = addr then k
  else alloc_index scope addr (k - 1)

let unlog_alloc scope addr =
  let i = alloc_index scope addr (scope.n_allocs - 1) in
  if i < 0 then -1
  else begin
    let sz = scope.alloc_sizes.(i) in
    let last = scope.n_allocs - 1 in
    Array.blit scope.alloc_addrs (i + 1) scope.alloc_addrs i (last - i);
    Array.blit scope.alloc_sizes (i + 1) scope.alloc_sizes i (last - i);
    scope.n_allocs <- last;
    (match scope.capture_log with
    | Some log -> ignore (Alloc_log.remove log ~lo:addr ~hi:(addr + sz) : bool)
    | None -> ());
    (match scope.audit_log with
    | Some log -> ignore (Alloc_log.remove log ~lo:addr ~hi:(addr + sz) : bool)
    | None -> ());
    sz
  end

(* A block this scope allocated and now frees is dead, and so are the
   instrumented writes into it: an undo entry would be rolled back, and
   a redo entry published, over the free-list link [Alloc.free] stores
   in the block's first word — a lost block after an abort, or a
   corrupted free list after a lazy commit.  Writes to a block happen
   after its allocation, so only the entries logged since this scope
   began are scanned; none are charged. *)
let drop_block_entries tx scope ~lo ~hi =
  if tx.thread.config.Config.lazy_versioning then
    Redo.remove_range tx.redo ~from:scope.redo_mark ~lo ~hi
  else begin
    let j = ref scope.undo_mark in
    for k = scope.undo_mark to tx.n_undo - 1 do
      let a = tx.undo_addrs.(k) in
      if a < lo || a >= hi then begin
        tx.undo_addrs.(!j) <- a;
        tx.undo_vals.(!j) <- tx.undo_vals.(k);
        incr j
      end
    done;
    tx.n_undo <- !j
  end

let free tx addr =
  let th = tx.thread in
  burn_fuel tx;
  th.platform.consume Costs.free;
  th.stats.tx_frees <- th.stats.tx_frees + 1;
  let scope = innermost tx in
  emit th.tid (Ev_free { addr });
  let size = unlog_alloc scope addr in
  if size >= 0 then begin
    (* Allocated by this very scope: really free it now. *)
    drop_block_entries tx scope ~lo:addr ~hi:(addr + size);
    Alloc.free th.arena addr
  end
  else
    (* Not ours (or an outer scope's): the free takes effect only if the
       whole transaction commits. *)
    push_dfree scope addr

let alloca tx n =
  let th = tx.thread in
  burn_fuel tx;
  th.platform.consume Costs.alloca;
  let addr = Tstack.alloca th.stack n in
  emit th.tid (Ev_alloca { addr; size = n });
  addr

let stack_save tx = Tstack.save tx.thread.stack
let stack_restore tx frame = Tstack.restore tx.thread.stack frame

(* ------------------------------------------------------------------ *)
(* Annotation API (paper, Figure 7)                                    *)

let add_private_block th ~addr ~size =
  Private_log.add_block th.private_log ~addr ~size

let remove_private_block th ~addr ~size =
  Private_log.remove_block th.private_log ~addr ~size

(* ------------------------------------------------------------------ *)
(* Begin / commit / abort                                              *)

let push_scope tx ~top =
  let th = tx.thread in
  let cfg = th.config in
  let capture_log =
    if top then tx.top_capture_log
    else
      (* Nested scopes answer capture questions relative to themselves
         (paper §2.2.1): fresh log. *)
      match cfg.Config.analysis with
      | Config.Runtime backend when cfg.Config.scope.Config.check_heap ->
          Some
            (Alloc_log.create ~array_capacity:cfg.Config.array_capacity
               ~fastpath:cfg.Config.fastpath backend)
      | Config.Runtime _ | Config.Baseline | Config.Compiler -> None
  in
  let audit_log =
    if top then tx.top_audit_log
    else if cfg.Config.audit then Some (Alloc_log.create Alloc_log.Tree)
    else None
  in
  (* A nested scope must not trust the parent's write-after-write notes:
     an address undo-logged by the outer scope still needs a fresh undo
     entry inside the child, or partial abort cannot restore it (the
     paper's §2.2.1 live-in observation, applied to the WAW filter). *)
  if not top then Waw.clear tx.waw;
  tx.scopes <-
    {
      start_sp = Tstack.save th.stack;
      undo_mark = tx.n_undo;
      redo_mark = Redo.size tx.redo;
      capture_log;
      audit_log;
      alloc_addrs = empty_ints;
      alloc_sizes = empty_ints;
      n_allocs = 0;
      dfree_addrs = empty_ints;
      n_dfrees = 0;
    }
    :: tx.scopes;
  if not top then emit th.tid Ev_scope_begin

let begin_top tx =
  let th = tx.thread in
  (* Small random jitter decorrelates thread phases (memory and pipeline
     variance on a real machine). *)
  th.platform.consume (Costs.txn_begin + Prng.int th.prng 8);
  (* EBR: publish "active at the epoch I just observed" before any read
     can happen.  The freeing side stamps limbo entries with the global
     epoch at commit, so this announcement is exactly what holds the
     global back from advancing two steps while this attempt runs. *)
  (match th.reclaim with
  | None -> ()
  | Some r ->
      th.platform.consume Costs.ebr_announce;
      Reclaim.announce r);
  tx.n_reads <- 0;
  Read_map.next_attempt tx.read_index;
  tx.n_undo <- 0;
  tx.n_acq <- 0;
  tx.fuel <- Costs.fuel_budget;
  if tx.attempts = 0 then Cm.note_begin th.cm;
  (* Only the Global clock has a snapshot timestamp; skipping the clock
     read keeps Scan's begin clock-free. *)
  tx.start_ts <- (match th.clock with Global -> Orec.clock th.orecs | Scan -> 0);
  Waw.clear tx.waw;
  Redo.clear tx.redo;
  (match tx.top_capture_log with Some l -> Alloc_log.clear l | None -> ());
  (match tx.top_audit_log with Some l -> Alloc_log.clear l | None -> ());
  tx.scopes <- [];
  tx.live <- true;
  tx.attempts <- tx.attempts + 1;
  push_scope tx ~top:true;
  emit th.tid (Ev_begin { attempt = tx.attempts })

let rollback_undo tx ~down_to =
  let th = tx.thread in
  for k = tx.n_undo - 1 downto down_to do
    Memory.set th.memory tx.undo_addrs.(k) tx.undo_vals.(k)
  done;
  th.platform.consume (Costs.abort_per_undo * (tx.n_undo - down_to));
  tx.n_undo <- down_to

let free_scope_allocs th scope =
  (* Newest-first, which is the right order for stack-like reuse in the
     arena free lists. *)
  for k = scope.n_allocs - 1 downto 0 do
    Alloc.free th.arena scope.alloc_addrs.(k)
  done;
  scope.n_allocs <- 0

(* Release words.  A non-negative word is a stamped version stored into
   every released orec (Global commits).  The two negative
   codes derive each orec's word from the version it held when it was
   acquired: [restore_prev] puts that version back (abort), [bump_prev]
   stores it plus one (Scan commit). *)
let restore_prev = -1
let bump_prev = -2

(* Orec release walks the acquisition log in order, and is not atomic:
   between two consecutive releases a zero-cycle [consume] is a decision
   point the checker can preempt at, so a peer may observe one orec
   released while the next is still held.  Outside the checker a
   zero-cycle charge never reaches the scheduler's deadline (and is free
   natively), so schedules are untouched. *)
let release tx ~word =
  let th = tx.thread in
  for k = 0 to tx.n_acq - 1 do
    if k > 0 then th.platform.consume 0;
    Orec.unlock th.orecs tx.acq_orecs.(k)
      (if word >= 0 then word
       else
         let prev = tx.acq_prev.(k) in
         if word = bump_prev then Orec.bumped prev else prev)
  done;
  tx.n_acq <- 0

let commit_epilogue tx =
  let th = tx.thread in
  let scope = innermost tx in
  (match th.reclaim with
  | None ->
      (* Newest-first, matching the order the old cons-list executed in. *)
      for k = scope.n_dfrees - 1 downto 0 do
        Alloc.free th.arena scope.dfree_addrs.(k)
      done
  | Some r ->
      (* EBR: committed frees park in limbo (header still allocated, no
         free-list link written) until two grace periods pass, so a
         lagging or zombie reader that still holds a pre-free pointer
         can never see the block recarved under it.  [Premature_reuse]
         skips the grace period for one free — the use-after-free the
         oracle must flag. *)
      for k = scope.n_dfrees - 1 downto 0 do
        let addr = scope.dfree_addrs.(k) in
        if fault_fires th Fault.Premature_reuse then
          Alloc.free th.arena addr
        else begin
          th.platform.consume Costs.limbo_push;
          Reclaim.retire r ~addr ~size:(Alloc.block_size th.arena addr)
        end
      done;
      let st = th.stats in
      st.limbo_blocks <- max st.limbo_blocks (Reclaim.pending r);
      st.limbo_words <- max st.limbo_words (Reclaim.pending_words r);
      th.platform.consume Costs.ebr_announce;
      Reclaim.announce_quiescent r;
      ebr_service th r);
  tx.scopes <- [];
  tx.live <- false;
  tx.attempts <- 0;
  Cm.on_complete th.cm;
  th.stats.commits <- th.stats.commits + 1

(* Lazy versioning, commit phase 1: acquire every write-set orec, in
   the buffer's first-insert order.  The write barrier deferred both
   the bounds guard and the acquisition; garbage addresses a zombie
   buffered surface here, before any store — [sandbox_bounds] keeps
   its validate-then-classify contract (program bug vs. phantom).
   Lock-wait patience bounds deadlock exactly as the eager barrier's
   acquisition does. *)
let lazy_acquire tx =
  let th = tx.thread in
  let r = tx.redo in
  for k = 0 to Redo.size r - 1 do
    let addr = Redo.addr r k in
    sandbox_bounds tx addr;
    let oi = Orec.index_of th.orecs addr in
    if not (owns tx oi) then begin
      th.platform.consume Costs.commit_acquire;
      acquire_loop tx oi 0
    end
  done

(* Lazy versioning, commit phase 3: write the buffered values back
   while every affected orec is still held.  The whole write-back is
   charged as one consume *before* the stores, so the simulator
   publishes at a single instant with no scheduling window between
   entries (concurrent instrumented readers spin on the held orecs
   either way).  [Publish_partial] deliberately loses the tail yet
   still lets the commit release fresh versions — the lost-update
   shape the oracle must flag. *)
let publish tx =
  let th = tx.thread in
  let r = tx.redo in
  let n = Redo.size r in
  if n > 0 then begin
    let cost = Costs.publish_per_entry * n in
    th.stats.publish_cycles <- th.stats.publish_cycles + cost;
    th.platform.consume cost;
    let limit = if fault_fires th Fault.Publish_partial then n / 2 else n in
    (* Injected crash: the process dies after writing back the first
       half of the buffer — memory holds a partial transaction whose
       commit record never reached the log. *)
    let crash_at =
      if th.wal <> None && fault_fires th Fault.Crash_mid_publish then n / 2
      else -1
    in
    for k = 0 to limit - 1 do
      if k = crash_at then wal_crash th;
      mem_set th (Redo.addr r k) (Redo.value r k)
    done
  end

(* Durable commit: build the redo-style record and append it at the
   serialization point.  The write set is the redo buffer under [+lazy]
   (one entry per distinct address, publish order); under eager undo it
   is the undo log's addresses paired with their *current* memory values
   (the post-transaction image — in-place stores already happened).
   Captured writes are in neither ([wal_skips], counted at the barrier).
   Surviving allocations are logged with their full payload images —
   this is what makes captured-write elision sound durably: a captured
   store only ever hits stack cells (transient by definition) or blocks
   the transaction itself allocated, whose final image rides along here.
   Transactions with no shared effect append nothing and consume no seq.

   The append's cycles are charged *before* the device is touched, so
   there is no scheduling point between the append and the [Ev_commit]
   emission — log order provably matches recorded commit order.  An
   append that completes a group triggers the fsync; its cycles are
   returned, not charged: the caller pays them once its orecs are
   released ([commit_top]), so peers do not spin on locks held across
   the device wait. *)
let wal_append_commit tx =
  match tx.thread.wal with
  | None -> 0
  | Some w ->
      let th = tx.thread in
      let writes =
        if th.config.Config.lazy_versioning then
          Array.init (Redo.size tx.redo) (fun k ->
              (Redo.addr tx.redo k, Redo.value tx.redo k))
        else
          Array.init tx.n_undo (fun k ->
              let a = tx.undo_addrs.(k) in
              (a, mem_get th a))
      in
      let scope = innermost tx in
      let allocs =
        Array.init scope.n_allocs (fun k ->
            let addr = scope.alloc_addrs.(k) in
            let size = Alloc.block_size th.arena addr in
            (addr, size, Array.init size (fun i -> mem_get th (addr + i))))
      in
      let frees = Array.sub scope.dfree_addrs 0 scope.n_dfrees in
      if
        Array.length writes > 0
        || Array.length allocs > 0
        || Array.length frees > 0
      then begin
        let words = Wal.commit_record_words ~writes ~allocs ~frees in
        th.platform.consume (Costs.wal_append_per_word * words);
        (* Injected crash: the fsync tears mid-record — a byte prefix
           reaches the log, nothing is acknowledged, the process dies.
           Group commit is suppressed so the record is still pending
           when the tear happens. *)
        if fault_fires th Fault.Torn_wal_record then begin
          let bytes, _ =
            Wal.append_commit ~group_commit:false w ~tid:th.tid ~writes
              ~allocs ~frees
          in
          Wal.crash_torn w ~cut:(1 + Prng.int th.prng (max 1 (bytes - 1)));
          raise Wal.Crashed
        end;
        let bytes, synced = Wal.append_commit w ~tid:th.tid ~writes ~allocs ~frees in
        th.stats.wal_records <- th.stats.wal_records + 1;
        th.stats.wal_bytes <- th.stats.wal_bytes + bytes;
        if synced then begin
          th.stats.wal_fsyncs <- th.stats.wal_fsyncs + 1;
          Costs.wal_fsync
        end
        else 0
      end
      else 0

(* Serialization point of a writing commit: write back buffered values
   (lazy), log the commit durably, emit the commit event — in that
   order, with crash points bracketing the sequence.  Returns the fsync
   cycles the append owes ([wal_append_commit]). *)
let commit_serialize tx =
  let th = tx.thread in
  if th.config.Config.lazy_versioning then publish tx
  else
    (* Eager "mid-publish": stores are already in place from the body;
       the crash window is after them and before the WAL append. *)
    crash_point th Fault.Crash_mid_publish;
  let fsync = wal_append_commit tx in
  emit th.tid Ev_commit;
  (* Post-publish crash: force the fsync first — the record is durable,
     the acknowledgement was delivered, and the process dies before a
     single orec release.  Recovery must replay this commit. *)
  if th.wal <> None && fault_fires th Fault.Crash_post_publish then begin
    (match th.wal with Some w -> Wal.sync w | None -> ());
    wal_crash th
  end;
  fsync

(* Commit-time validation: charge the commit, prove the read set still
   consistent (or raise), and return the word {!release} stores into the
   acquired orecs. *)
let commit_validate tx =
  let th = tx.thread in
  match th.clock with
  | Global ->
      th.platform.consume
        (Costs.commit_base + Costs.clock_advance
        + (Costs.commit_per_orec * tx.n_acq));
      let wv =
        (* Injected fault: stamp with the clock's current value without
           advancing it — released orecs look no newer than the last
           real commit, so O(1) snapshot checks wrongly accept them. *)
        if fault_fires th Fault.Clock_stall then Orec.clock th.orecs
        else begin
          th.stats.clock_advances <- th.stats.clock_advances + 1;
          Orec.advance_clock th.orecs
        end
      in
      if wv - 1 = tx.start_ts then begin
        (* No commit landed since the snapshot: the read set is still
           current by construction; the O(n_reads) scan is one compare. *)
        charge_validation th Costs.tvalidate_check;
        th.stats.validations_skipped <- th.stats.validations_skipped + 1
      end
      else begin
        th.platform.consume (Costs.commit_per_read * tx.n_reads);
        if not (validate tx) then raise Retry_conflict
      end;
      Orec.stamped ~ts:wv
  | Scan ->
      th.platform.consume
        (Costs.commit_base
        + (Costs.commit_per_read * tx.n_reads)
        + (Costs.commit_per_orec * tx.n_acq));
      if not (validate tx) then raise Retry_conflict;
      bump_prev

(* One commit sequence for every clock and versioning mode.  The commit
   event is emitted at the serialization point — validation has
   succeeded and every store is (or is about to become, under locks
   still held) the committed state — and *before* the first orec
   release.  Release is not atomic: the decision point between two
   releases ([release]) lets a peer read one orec's released value,
   commit, and have its whole lifetime recorded before a trailing-release
   commit event, which the oracle would (rightly) reject as reading a
   value no committed instant held.  Emitting before release keeps the recorded
   commit order consistent with visibility order.

   A group-commit fsync is paid after release: the append and the commit
   event stay under the locks (log order = commit order), but peers need
   not wait out the device.  Group commit already releases three commits
   in four before they are durable, so acknowledging after the release
   weakens nothing. *)
let commit_top tx =
  let th = tx.thread in
  (* Injected crash: death at commit entry — nothing acquired, nothing
     published, nothing logged.  Recovery must show none of it. *)
  crash_point th Fault.Crash_pre_commit;
  (* Lazy mode acquires the write set up front; [tx.n_acq] below then
     means the same thing it does in eager mode (notably for the
     read-only fast path: an empty buffer acquired nothing). *)
  if th.config.Config.lazy_versioning then lazy_acquire tx;
  let fsync =
    if th.clock <> Scan && tx.n_acq = 0 then begin
      (* Read-only fast path: every read was checked against the snapshot
         as it happened, so the read set is a consistent snapshot by
         construction — serialize there.  No validation scan, no clock
         bump, nothing to release. *)
      th.platform.consume Costs.commit_base;
      th.stats.readonly_fast_commits <- th.stats.readonly_fast_commits + 1;
      (* Acquired nothing, but may still have durable effects: an
         alloc-only transaction (every write elided into its own blocks)
         reaches here with a nonempty alloc set whose images must survive
         — append its record.  True read-only commits append nothing,
         keeping the fast path fast. *)
      let fsync = wal_append_commit tx in
      emit th.tid Ev_commit;
      fsync
    end
    else begin
      let word = commit_validate tx in
      let fsync = commit_serialize tx in
      if tx.n_acq > 0 && fault_fires th Fault.Delayed_unlock then
        th.platform.consume Costs.fault_unlock_delay;
      release tx ~word;
      fsync
    end
  in
  if fsync > 0 then th.platform.consume fsync;
  commit_epilogue tx

let abort_top tx ~user =
  let th = tx.thread in
  th.platform.consume Costs.abort_base;
  if th.config.Config.lazy_versioning then
    (* Deferred updates: buffered writes never touched memory, so
       dropping the buffer (cleared at the next begin) IS the
       rollback.  The undo log holds buffer-value journal entries,
       never memory values — replaying it into memory would corrupt
       it. *)
    tx.n_undo <- 0
  else rollback_undo tx ~down_to:0;
  release tx ~word:restore_prev;
  (* Free speculative allocations scope by scope, innermost first. *)
  List.iter (fun scope -> free_scope_allocs th scope) tx.scopes;
  (* Restore the stack to the outermost scope's entry point. *)
  (match List.rev tx.scopes with
  | outermost :: _ -> Tstack.restore th.stack outermost.start_sp
  | [] -> ());
  tx.scopes <- [];
  tx.live <- false;
  if user then begin
    th.stats.user_aborts <- th.stats.user_aborts + 1;
    tx.attempts <- 0
  end
  else th.stats.aborts <- th.stats.aborts + 1;
  (* EBR: an aborted attempt is quiescent too — its reads are dead, so
     it must stop holding the global epoch back before the retry's
     begin re-announces. *)
  (match th.reclaim with
  | None -> ()
  | Some r ->
      th.platform.consume Costs.ebr_announce;
      Reclaim.announce_quiescent r;
      ebr_service th r);
  emit th.tid (Ev_abort { user })

(* Nested commit: fold the child scope into its parent. *)
let commit_scope tx =
  let th = tx.thread in
  match tx.scopes with
  | [] | [ _ ] -> invalid_arg "Txn.commit_scope: no nested scope"
  | child :: (parent :: _ as rest) ->
      (* Oldest-first append keeps the parent's log in allocation order,
         exactly as the old list fold over [List.rev child.allocs] did. *)
      for k = 0 to child.n_allocs - 1 do
        let addr = child.alloc_addrs.(k) and size = child.alloc_sizes.(k) in
        push_alloc parent addr size;
        (match parent.capture_log with
        | Some log -> capture_log_add th log ~lo:addr ~hi:(addr + size)
        | None -> ());
        match parent.audit_log with
        | Some log ->
            ignore (Alloc_log.add log ~lo:addr ~hi:(addr + size) : Alloc_log.added)
        | None -> ()
      done;
      for k = 0 to child.n_dfrees - 1 do
        push_dfree parent child.dfree_addrs.(k)
      done;
      tx.scopes <- rest;
      th.stats.nested_commits <- th.stats.nested_commits + 1;
      emit th.tid Ev_scope_commit

(* Nested (partial) abort: roll the child scope back, keep the parent
   running.  Acquired orecs are kept (safe, merely pessimistic); the WAW
   filter must be reset because undo entries it vouches for are gone. *)
let abort_scope tx =
  let th = tx.thread in
  match tx.scopes with
  | [] | [ _ ] -> invalid_arg "Txn.abort_scope: no nested scope"
  | child :: rest ->
      th.platform.consume Costs.abort_base;
      (if th.config.Config.lazy_versioning then begin
         (* Roll the *buffer* back, not memory: replay the journal of
            overwritten buffered values newest-first, then drop the
            child's fresh inserts (always a suffix of the redo log). *)
         for k = tx.n_undo - 1 downto child.undo_mark do
           let i = Redo.find tx.redo tx.undo_addrs.(k) in
           if i >= 0 then Redo.set_value tx.redo i tx.undo_vals.(k)
         done;
         th.platform.consume
           (Costs.abort_per_undo * (tx.n_undo - child.undo_mark));
         tx.n_undo <- child.undo_mark;
         Redo.truncate tx.redo child.redo_mark
       end
       else rollback_undo tx ~down_to:child.undo_mark);
      free_scope_allocs th child;
      Tstack.restore th.stack child.start_sp;
      Waw.clear tx.waw;
      tx.scopes <- rest;
      th.stats.nested_aborts <- th.stats.nested_aborts + 1;
      emit th.tid Ev_scope_abort

(* ------------------------------------------------------------------ *)
(* The atomic runner                                                   *)

(* Post-abort wait, delegated to the contention manager.  The jitter is
   drawn here, one [Prng.int] per abort whatever the policy, so switching
   policy changes the waits but not the PRNG stream.  Under the default
   [Backoff] the wait is [Costs.backoff]: at most 2048 jitter-free cycles,
   under [Platform.native_relax]'s sleep threshold, so a native retry
   spins unless its jitter pushes it past. *)
let backoff th attempt ~work =
  let jitter = Prng.int th.prng 64 in
  let cycles = Cm.on_abort th.cm th.stats ~attempt ~work ~jitter in
  th.stats.backoff_cycles <- th.stats.backoff_cycles + cycles;
  th.platform.consume cycles;
  (* Native domains really wait the backoff out ([relax] is a no-op on the
     simulator, where [consume] just charged it as virtual time). *)
  th.platform.relax cycles;
  th.platform.yield ()

let get_tx th =
  match th.active with
  | Some tx -> tx
  | None ->
      let tx = make_tx th in
      th.active <- Some tx;
      tx

type 'a outcome = Committed of 'a | Conflict | Userabort | Failed of exn

let atomic th f =
  let tx = get_tx th in
  if tx.live then begin
    (* Nested transaction. *)
    push_scope tx ~top:false;
    match f tx with
    | r ->
        commit_scope tx;
        r
    | exception Retry_conflict ->
        (* Conflicts abort the whole (flattened) transaction. *)
        raise Retry_conflict
    | exception User_abort ->
        abort_scope tx;
        raise User_abort
    | exception e ->
        abort_scope tx;
        raise e
  end
  else begin
    let rec attempt n =
      begin_top tx;
      let outcome =
        match f tx with
        | r -> ( try Committed (let () = commit_top tx in r) with
                 | Retry_conflict -> Conflict)
        | exception Retry_conflict -> Conflict
        | exception User_abort -> Userabort
        | exception e ->
            (* Zombie sandbox: a transaction on an invalid snapshot can
               raise anything; re-validate to tell a real error from
               conflict fallout, and swallow the phantom. *)
            if validate tx then Failed e
            else begin
              th.stats.sandbox_aborts <- th.stats.sandbox_aborts + 1;
              Conflict
            end
      in
      match outcome with
      | Committed r -> r
      | Conflict ->
          let work = tx.n_reads + tx.n_undo + tx.n_acq in
          abort_top tx ~user:false;
          backoff th n ~work;
          attempt (n + 1)
      | Userabort ->
          abort_top tx ~user:true;
          Cm.on_complete th.cm;
          raise User_abort
      | Failed e ->
          abort_top tx ~user:false;
          Cm.on_complete th.cm;
          raise e
    in
    attempt 1
  end

let abort _tx = raise User_abort
let restart _tx = raise Retry_conflict

let in_txn th =
  match th.active with Some tx -> tx.live | None -> false

(* ------------------------------------------------------------------ *)
(* Privatization                                                       *)

(* Wait until the global epoch has advanced twice past the value read
   on entry.  Every transaction attempt in flight when the wait began
   announced an epoch at or below the entry value, so it must finish
   (commit or abort) before the second advance can happen — after
   [quiesce] returns, no attempt that predates the call is still
   running, and anything it privatized beforehand is invisible to
   transactional readers.  Each spin iteration helps: it tries the
   advance itself and drains this thread's own limbo.  Without [+ebr]
   there is no epoch to wait on and the fence is a no-op. *)
let quiesce th =
  if in_txn th then invalid_arg "Txn.quiesce: called inside a transaction";
  match th.reclaim with
  | None -> ()
  | Some r ->
      let s = Reclaim.shared_of r in
      let target = Reclaim.global_epoch s + 2 in
      while Reclaim.global_epoch s < target do
        th.stats.grace_waits <- th.stats.grace_waits + 1;
        th.platform.consume Costs.grace_wait;
        if Reclaim.try_advance s then
          th.stats.epoch_advances <- th.stats.epoch_advances + 1;
        ignore
          (Reclaim.drain r
             ~free:(fun ~addr ~size:_ -> Alloc.free th.arena addr)
            : int);
        th.platform.yield ()
      done

(* Privatize a block: once the grace period has passed, no in-flight
   reader can reach it, so annotating it private (every later barrier
   elides it) is safe and the caller may touch it with raw accesses. *)
let privatize th ~addr ~size =
  quiesce th;
  add_private_block th ~addr ~size

(* ------------------------------------------------------------------ *)
(* Non-transactional ("plain code") accesses                           *)

let raw_read th addr =
  th.platform.consume Costs.direct_access;
  Memory.get th.memory addr

let raw_write th addr v =
  th.platform.consume Costs.direct_access;
  wal_raw th addr v;
  Memory.set th.memory addr v;
  emit th.tid (Ev_raw_write { addr; value = v })

let raw_alloc th n =
  th.platform.consume Costs.alloc;
  Alloc.alloc th.arena n

let raw_free th addr =
  th.platform.consume Costs.free;
  Alloc.free th.arena addr

let work th cycles = th.platform.consume cycles
let yield_hint th = th.platform.yield ()
let tx_work tx cycles =
  burn_fuel tx;
  tx.thread.platform.consume cycles

let thread_stats th = th.stats
let thread_wal th = th.wal
let thread_id th = th.tid
let thread_config th = th.config
let thread_memory th = th.memory
let thread_arena th = th.arena
let thread_stack th = th.stack
let thread_prng th = th.prng
