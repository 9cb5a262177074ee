(* The transaction descriptor: one per thread, reused by every attempt.
   It holds the thread's fixed context (platform, memory, stack, arena,
   orecs, config, stats, PRNG, WAL and reclamation handles) and the
   attempt's logs — read log, acquisition log, write set, scope slots —
   with their push operations, the checker's tracer, the injected-fault
   draw and the WAL hooks the layers above share.  The layers, in
   dependency order: Descriptor, Validation, Elision, Lock_wait, Barrier,
   Commit, then Txn, which exports them behind txn.mli. *)

module Memory = Captured_tmem.Memory
module Tstack = Captured_tmem.Tstack
module Alloc = Captured_tmem.Alloc
module Alloc_log = Captured_core.Alloc_log
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
  | Elided_init

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

(* For cold sites (begin/commit/abort/alloc).  The barriers' emitters
   take scalars and build the event only under [Some f], so disabled
   tracing allocates nothing. *)
let emit tid ev = match !tracer with None -> () | Some f -> f tid ev

let emit_read tid addr value cls =
  match !tracer with
  | None -> ()
  | Some f -> f tid (Ev_read { addr; value; cls })

let emit_write tid addr value cls =
  match !tracer with
  | None -> ()
  | Some f -> f tid (Ev_write { addr; value; cls })

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
  (* Annotated private blocks (paper Figure 7): unlike a scope's capture
     log, it persists across transactions. *)
  private_log : Alloc_log.t;
  prng : Prng.t;
  (* The orec word this thread's acquisitions store.  An orec holds it
     exactly while the current attempt owns the record: every attempt
     releases all it acquired before the next begins. *)
  lock_word : int;
  (* Private target for the debug read-barrier fence (Config.fences). *)
  fence_dummy : int Atomic.t;
  (* Durable transactions: the shared write-ahead log, when attached
     ([Engine.attach_wal]).  [None] makes every WAL site free. *)
  wal : Wal.t option;
  (* Epoch-based reclamation: this thread's announcement slot + limbo
     list, through which every committed free passes. *)
  reclaim : Reclaim.t;
  (* +fp site tier: per-site hit windows deciding which sites skip the
     capture check (thread-owned; sized from the sites declared so far). *)
  site_tier : Site_tier.t;
  (* Cycles the current barrier's capture and private checks spent
     ([Elision.try_elide] resets it): the barrier charges them with the
     access, in one [consume]. *)
  mutable check_cost : int;
  (* The transaction descriptor: the logs below are reset by every
     top-level begin and reused across attempts. *)
  (* read set: distinct orecs with the word observed first, indexed by
     orec in [read_index]; beside each, the address and value last read
     under that orec (read-after-read forwarding, [Barrier.full_read]),
     and 1 in [read_multi] once a second address was read under it (the
     pair then speaks for one of several reads: no value rescue,
     [Validation.rescue_entry]) *)
  mutable read_orecs : int array;
  mutable read_words : int array;
  mutable read_addrs : int array;
  mutable read_vals : int array;
  mutable read_multi : int array;
  mutable n_reads : int;
  read_index : Int_map.t;
  (* acquired orec indices, each with the unlocked word it replaced *)
  mutable acq_orecs : int array;
  mutable acq_prev : int array;
  mutable n_acq : int;
  (* The attempt has stored into memory under an acquired orec (eager
     versioning): its abort must release fresh words
     ([Commit.abort_word]). *)
  mutable wrote_in_place : bool;
  (* The write set: old values under eager versioning (rollback), new
     ones under lazy (publish); either way the commit record's addresses
     in first-write order.  It also holds the nested-scope journal. *)
  wset : Write_set.t;
  (* Scope serials handed out so far, by this thread's every attempt. *)
  mutable scope_serial : int;
  (* The open scopes are [scopes.(0 .. depth-1)], outermost first: slots
     every attempt reuses, grown on the first nesting this deep.  A
     transaction runs exactly while [depth > 0]: [Commit.begin_top]
     pushes the top scope, commit and top-level abort pop them all. *)
  mutable scopes : scope array;
  mutable depth : int;
  (* Zombie-guard fuel left this attempt (see [Validation.burn_fuel]). *)
  mutable fuel : int;
  (* Snapshot timestamp (Global clock): the read set is known consistent
     at the instant the global clock held this value. *)
  mutable start_ts : int;
  (* The orec whose lock ended this attempt ([Lock_wait.spin_on_lock]),
     -1 for none, and the locked word it held then: [Lock_wait.backoff]
     waits for that word to leave the orec.  Cleared by
     [Commit.begin_top], so it never outlives the attempt that spun
     out. *)
  mutable blocker : int;
  mutable blocker_word : int;
}

(* A transaction is its thread's own descriptor; txn.mli keeps the two
   types apart, so callers still cannot pass one for the other. *)
and tx = thread

and scope = {
  mutable start_sp : Memory.addr;
  (* Write-set journal and log lengths at scope begin: entries past the
     log mark are this scope's fresh inserts, restored (eager) and
     dropped on partial abort. *)
  mutable journal_mark : int;
  mutable wset_mark : int;
  (* Greater than the serial of every scope opened before this one in
     the attempt: a write-set entry stamped at or above it was inserted
     or journalled by this scope or a child that committed into it. *)
  mutable serial : int;
  (* Runtime heap checks only; cleared each time the slot is pushed. *)
  capture_log : Alloc_log.t option;
  (* Speculative allocations and deferred frees as grow-only parallel int
     arrays, oldest-first — list conses here would make
     [Barrier.alloc]/[Barrier.free] allocate on the OCaml heap inside the
     barrier-free fast path.  All newest-first effects (rollback freeing,
     deferred-free execution, the [Barrier.unlog_alloc] scan) walk the
     arrays [downto].  The allocations are also the scope's audit-mode
     record ([Elision.audit_classify]). *)
  mutable alloc_addrs : int array;
  mutable alloc_sizes : int array;
  mutable n_allocs : int;
  mutable dfree_addrs : int array;
  mutable n_dfrees : int;
}

(* ------------------------------------------------------------------ *)
(* Thread construction                                                 *)

(* A scope slot.  Its alloc and deferred-free logs start as the shared
   empty array (most scopes never allocate) and grow on first use. *)
let new_scope (cfg : Config.t) =
  {
    start_sp = 0;
    journal_mark = 0;
    wset_mark = 0;
    serial = 0;
    capture_log =
      (match cfg.analysis with
      | Config.Runtime backend when cfg.scope.Config.check_heap ->
          Some (Alloc_log.create ~fastpath:cfg.fastpath backend)
      | Config.Runtime _ | Config.Baseline | Config.Compiler -> None);
    alloc_addrs = [||];
    alloc_sizes = [||];
    n_allocs = 0;
    dfree_addrs = [||];
    n_dfrees = 0;
  }

let create_thread ~tid ~platform ~memory ~stack ~arena ~orecs ~config
    ?wal ~reclaim_shared ~seed () =
  if tid < 0 || tid >= Stats.max_tids then
    invalid_arg "Txn.create_thread: tid does not fit the conflict-pair key";
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
    private_log = Alloc_log.create Alloc_log.Tree;
    prng = Prng.create seed;
    lock_word = Orec.locked_word ~owner:tid;
    fence_dummy = Atomic.make 0;
    wal = (if config.Config.durable then wal else None);
    reclaim = Reclaim.handle reclaim_shared ~slot:tid;
    site_tier = Site_tier.create ~sites:(Site.count ());
    check_cost = 0;
    read_orecs = Array.make 64 0;
    read_words = Array.make 64 0;
    read_addrs = Array.make 64 0;
    read_vals = Array.make 64 0;
    read_multi = Array.make 64 0;
    n_reads = 0;
    read_index = Int_map.create ();
    acq_orecs = Array.make 16 0;
    acq_prev = Array.make 16 0;
    n_acq = 0;
    wrote_in_place = false;
    wset = Write_set.create ();
    scope_serial = 0;
    scopes = [| new_scope config |];
    depth = 0;
    fuel = 0;
    start_ts = 0;
    blocker = -1;
    blocker_word = 0;
  }

(* A full (SC) fence: an SC read-modify-write on a thread-private atomic
   orders everything before it with everything after it.  Debug-only
   ([Config.fences]); see DESIGN.md §10 for why the STM is correct
   without it. *)
let fence th = ignore (Atomic.fetch_and_add th.fence_dummy 1 : int)

(* Barrier memory accesses: [Validation.sandbox_bounds] validates every address
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
   on the barrier fast path.  An empty log grows to 8 entries. *)
let grow xs =
  let cap = Array.length xs in
  let xs' = Array.make (max 8 (2 * cap)) 0 in
  Array.blit xs 0 xs' 0 cap;
  xs'

let push_read tx oi word addr value =
  let n = tx.n_reads in
  if n >= Array.length tx.read_orecs then begin
    tx.read_orecs <- grow tx.read_orecs;
    tx.read_words <- grow tx.read_words;
    tx.read_addrs <- grow tx.read_addrs;
    tx.read_vals <- grow tx.read_vals;
    tx.read_multi <- grow tx.read_multi
  end;
  Array.unsafe_set tx.read_orecs n oi;
  Array.unsafe_set tx.read_words n word;
  Array.unsafe_set tx.read_addrs n addr;
  Array.unsafe_set tx.read_vals n value;
  Array.unsafe_set tx.read_multi n 0;
  Int_map.add tx.read_index oi n;
  tx.n_reads <- n + 1

let push_acq tx oi prev =
  let n = tx.n_acq in
  if n >= Array.length tx.acq_orecs then begin
    tx.acq_orecs <- grow tx.acq_orecs;
    tx.acq_prev <- grow tx.acq_prev
  end;
  Array.unsafe_set tx.acq_orecs n oi;
  Array.unsafe_set tx.acq_prev n prev;
  tx.n_acq <- n + 1

let push_alloc scope addr size =
  let n = scope.n_allocs in
  if n >= Array.length scope.alloc_addrs then begin
    scope.alloc_addrs <- grow scope.alloc_addrs;
    scope.alloc_sizes <- grow scope.alloc_sizes
  end;
  scope.alloc_addrs.(n) <- addr;
  scope.alloc_sizes.(n) <- size;
  scope.n_allocs <- n + 1

let push_dfree scope addr =
  let n = scope.n_dfrees in
  if n >= Array.length scope.dfree_addrs then
    scope.dfree_addrs <- grow scope.dfree_addrs;
  scope.dfree_addrs.(n) <- addr;
  scope.n_dfrees <- n + 1

let innermost tx =
  if tx.depth = 0 then invalid_arg "Txn: no open scope";
  tx.scopes.(tx.depth - 1)

(* Count one injected fault; true. *)
let injected th =
  th.stats.faults_injected <- th.stats.faults_injected + 1;
  true

(* [fault_fires th k] — true when [k] is the configured injected fault
   and its per-opportunity PRNG draw fires.  Configurations without fault
   [k] make no draw, so their streams (and schedules) are untouched. *)
let fault_fires th kind =
  match th.config.Config.fault with
  | Some k when k = kind ->
      Prng.chance th.prng ~percent:(Fault.rate kind) && injected th
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Durable-transaction support (write-ahead log)                        *)

(* Injected process death.  The exception deliberately escapes the
   retry loop ([Txn.atomic] only catches [Retry_conflict]) and the fiber:
   the simulated process is gone, and the harness moves to recovery. *)
let wal_crash th =
  (match th.wal with Some w -> Wal.crash w | None -> ());
  raise Wal.Crashed

(* Crash-point sites only exist when a WAL is attached; the [&&] keeps
   configurations without the fault (or without durability) from ever
   drawing the PRNG, so their schedules are untouched. *)
let crash_point th kind = if th.wal <> None && fault_fires th kind then wal_crash th

(* Account one appended record, raw or commit; true when its append
   completed a group and synced the log. *)
let wal_account th (bytes, synced) =
  th.stats.wal_records <- th.stats.wal_records + 1;
  th.stats.wal_bytes <- th.stats.wal_bytes + bytes;
  if synced then th.stats.wal_fsyncs <- th.stats.wal_fsyncs + 1;
  synced

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
      ignore (wal_account th (Wal.append_raw w ~addr ~value) : bool)
