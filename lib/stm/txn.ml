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
  (* Epoch-based reclamation (Config.ebr): this thread's announcement
     slot + limbo list.  [None] makes every EBR site free — non-ebr
     configurations draw no PRNG, consume no cycles, so their schedules
     stay bit-identical. *)
  reclaim : Reclaim.t option;
  (* +fp site tier: per-site hit windows deciding which sites skip the
     capture check (thread-owned; sized from the sites declared so far). *)
  site_tier : Site_tier.t;
  (* Cycles the current barrier's capture and private checks spent
     ([try_elide] resets it): the barrier charges them with the access,
     in one [consume]. *)
  mutable check_cost : int;
  (* The transaction descriptor: the logs below are reset by every
     top-level begin and reused across attempts. *)
  (* read set: distinct orecs with the word observed first, indexed by
     orec in [read_index]; beside each, the address and value last read
     under that orec (read-after-read forwarding, [full_read]), and 1 in
     [read_multi] once a second address was read under it (the pair then
     speaks for one of several reads: no value rescue, [rescue_entry]) *)
  mutable read_orecs : int array;
  mutable read_words : int array;
  mutable read_addrs : int array;
  mutable read_vals : int array;
  mutable read_multi : int array;
  mutable n_reads : int;
  read_index : Int_map.t;
  (* Nested-scope journal: an entry's value (memory word under eager,
     buffered value under lazy) and stamp from before a nested scope's
     first rewrite of a write-set entry an outer scope made ([rewrite]). *)
  mutable undo_addrs : int array;
  mutable undo_vals : int array;
  mutable undo_stamps : int array;
  mutable n_undo : int;
  (* acquired orec indices, each with the unlocked word it replaced *)
  mutable acq_orecs : int array;
  mutable acq_prev : int array;
  mutable n_acq : int;
  (* The attempt has stored into memory under an acquired orec (eager
     versioning): its abort must release fresh words ([abort_word]). *)
  mutable wrote_in_place : bool;
  (* The write set: old values under eager versioning (rollback), new
     ones under lazy (publish); either way the commit record's addresses
     in first-write order. *)
  wset : Write_set.t;
  (* Scope serials handed out so far, by this thread's every attempt. *)
  mutable scope_serial : int;
  top_capture_log : Alloc_log.t option; (* reused by the top-level scope *)
  (* Innermost first.  A transaction runs exactly while this is
     non-empty: [begin_top] pushes the top scope, commit and top-level
     abort empty it. *)
  mutable scopes : scope list;
  (* Zombie-guard fuel left this attempt (see [burn_fuel]). *)
  mutable fuel : int;
  (* Snapshot timestamp (Global clock): the read set is known consistent
     at the instant the global clock held this value. *)
  mutable start_ts : int;
  (* The orec whose lock ended this attempt ([spin_on_lock]), -1 for
     none, and the locked word it held then: [backoff] waits for that word
     to leave the orec.  Cleared by [begin_top], so it never outlives the
     attempt that spun out. *)
  mutable blocker : int;
  mutable blocker_word : int;
}

(* A transaction is its thread's own descriptor; txn.mli keeps the two
   types apart, so callers still cannot pass one for the other. *)
and tx = thread

and scope = {
  start_sp : Memory.addr;
  undo_mark : int;
  (* Write-set length at scope begin: entries past the mark are this
     scope's fresh inserts, restored (eager) and dropped on partial
     abort. *)
  wset_mark : int;
  (* Greater than the serial of every scope opened before this one in
     the attempt: a write-set entry stamped at or above it was inserted
     or journalled by this scope or a child that committed into it. *)
  serial : int;
  capture_log : Alloc_log.t option;
  (* Speculative allocations and deferred frees as grow-only parallel int
     arrays, oldest-first — list conses here would make [alloc]/[free]
     allocate on the OCaml heap inside the barrier-free fast path.  All
     newest-first effects (rollback freeing, deferred-free execution, the
     [unlog_alloc] scan) walk the arrays [downto].  The allocations are
     also the scope's audit-mode record ([audit_classify]). *)
  mutable alloc_addrs : int array;
  mutable alloc_sizes : int array;
  mutable n_allocs : int;
  mutable dfree_addrs : int array;
  mutable n_dfrees : int;
}

(* ------------------------------------------------------------------ *)
(* Thread construction                                                 *)

(* A scope's fresh capture log (runtime heap checks only). *)
let new_capture_log (cfg : Config.t) =
  match cfg.analysis with
  | Config.Runtime backend when cfg.scope.Config.check_heap ->
      Some (Alloc_log.create ~fastpath:cfg.fastpath backend)
  | Config.Runtime _ | Config.Baseline | Config.Compiler -> None

let create_thread ~tid ~platform ~memory ~stack ~arena ~orecs ~config
    ?wal ?reclaim_shared ~seed () =
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
    reclaim =
      (if config.Config.ebr then
         match reclaim_shared with
         | Some s -> Some (Reclaim.handle s ~slot:tid)
         | None -> None
       else None);
    site_tier = Site_tier.create ~sites:(Site.count ());
    check_cost = 0;
    read_orecs = Array.make 64 0;
    read_words = Array.make 64 0;
    read_addrs = Array.make 64 0;
    read_vals = Array.make 64 0;
    read_multi = Array.make 64 0;
    n_reads = 0;
    read_index = Int_map.create ();
    undo_addrs = Array.make 64 0;
    undo_vals = Array.make 64 0;
    undo_stamps = Array.make 64 0;
    n_undo = 0;
    acq_orecs = Array.make 16 0;
    acq_prev = Array.make 16 0;
    n_acq = 0;
    wrote_in_place = false;
    wset = Write_set.create ();
    scope_serial = 0;
    top_capture_log = new_capture_log config;
    scopes = [];
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

let push_undo tx addr value stamp =
  let n = tx.n_undo in
  if n >= Array.length tx.undo_addrs then begin
    tx.undo_addrs <- grow tx.undo_addrs;
    tx.undo_vals <- grow tx.undo_vals;
    tx.undo_stamps <- grow tx.undo_stamps
  end;
  Array.unsafe_set tx.undo_addrs n addr;
  Array.unsafe_set tx.undo_vals n value;
  Array.unsafe_set tx.undo_stamps n stamp;
  tx.n_undo <- n + 1

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
  match tx.scopes with
  | s :: _ -> s
  | [] -> invalid_arg "Txn: no open scope"

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
  tx.n_acq > 0 && Orec.get tx.orecs oi = tx.lock_word

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

(* An attempt's quiescent exit (commit or abort: its reads are dead, so
   it must stop holding the global epoch back before the next begin
   re-announces), then one reclaim sweep: try to advance the global
   epoch, then release every limbo entry whose two grace periods have
   elapsed back to this thread's arena (same "freeing thread keeps it"
   placement as the immediate free it replaces).  A sweep that leaves
   entries behind is a stall — some in-flight reader is still holding
   the epoch back. *)
let ebr_exit th r =
  th.platform.consume Costs.ebr_announce;
  Reclaim.announce_quiescent r;
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

(* Top-level recursion: a local [let rec] would close over the tx and
   allocate on every validation (which [burn_fuel] runs from the
   barrier path). *)
let rec reads_valid tx k =
  k >= tx.n_reads
  || read_entry_valid tx
       (Array.unsafe_get tx.read_orecs k)
       (Array.unsafe_get tx.read_words k)
     && reads_valid tx (k + 1)

(* Value-checked rescue of read-log entry [k], whose orec moved.  The
   four words of an array line share an orec, and the hash aliases
   unrelated words, so a commit moves the word of reads it did not
   change.  When this attempt read one address under the
   orec and memory still holds the logged value, the read is as current
   under the new word as it was under the old, and the entry adopts the
   new word.  The new word must be unlocked (memory under a lock may
   hold an uncommitted value) and stable around the value load (the
   sandwich [full_read_loop] runs).  Under the Global clock it must also
   be no newer than [upto], the instant the caller proves the read set
   at: a later stamp is a commit serialized after that instant, and an
   A-B-A on the word could hide a different value at it.  An entry that
   covers several addresses is never rescued: the log keeps only the
   last pair, and the line-mate commit may have changed an earlier
   one. *)
let rescue_entry tx k ~upto =
  let oi = Array.unsafe_get tx.read_orecs k in
  let w = Orec.get tx.orecs oi in
  (not (Orec.is_locked w))
  && Array.unsafe_get tx.read_multi k = 0
  && (match tx.clock with
     | Scan -> true
     | Global -> Orec.version_of w <= upto)
  && (if Config.has_fault tx.config Fault.Blind_rescue then begin
        (* Injected fault (checker self-test): adopt without looking. *)
        tx.stats.faults_injected <- tx.stats.faults_injected + 1;
        true
      end
      else
        let v = mem_get tx (Array.unsafe_get tx.read_addrs k) in
        Orec.get tx.orecs oi = w && v = Array.unsafe_get tx.read_vals k)
  && begin
       Array.unsafe_set tx.read_words k w;
       tx.stats.value_rescues <- tx.stats.value_rescues + 1;
       true
     end

(* The first validation pass: every entry still holds its word or is
   rescued.  Returns the number rescued, or -1 at the first entry that
   is neither. *)
let rec rescue_scan tx ~upto k rescued =
  if k >= tx.n_reads then rescued
  else if
    read_entry_valid tx
      (Array.unsafe_get tx.read_orecs k)
      (Array.unsafe_get tx.read_words k)
  then rescue_scan tx ~upto (k + 1) rescued
  else if rescue_entry tx k ~upto then
    rescue_scan tx ~upto (k + 1) (rescued + 1)
  else -1

(* Prove the read set consistent at one instant, or return false.  A
   scan is not atomic: an entry checked before a rescue may have moved
   by the time the rescue's value load ran, so a pass that rescued
   anything is followed by one more version-only pass over the whole
   log.  Every read then holds from its (possibly rescued) observation
   until its second check, and all observations precede all second
   checks.  [upto] bounds rescued versions under the Global clock
   ([rescue_entry]); Scan ignores it. *)
let validate tx ~upto =
  tx.stats.validations <- tx.stats.validations + 1;
  charge_validation tx (Costs.validate_per_read * tx.n_reads);
  (* Injected fault (checker self-test): report success without looking. *)
  (Config.has_fault tx.config Fault.Skip_validation
  && begin
       tx.stats.faults_injected <- tx.stats.faults_injected + 1;
       true
     end)
  ||
  let rescued = rescue_scan tx ~upto 0 0 in
  rescued = 0
  || rescued > 0
     && begin
          charge_validation tx
            ((rescued * (Costs.validate_per_read + Costs.direct_access))
            + (Costs.validate_per_read * tx.n_reads));
          reads_valid tx 0
        end

(* Snapshot extension (lazy snapshot algorithm, Global clock only): a
   version newer than the snapshot was observed.  The clock is sampled
   first, then one full validation proves every logged read still holds
   — orec versions only grow, so "valid after the sample" implies "valid
   at the sample" — and the sample becomes the new [start_ts] instead of
   the attempt aborting. *)
let extend_snapshot tx =
  let now = Orec.clock tx.orecs in
  tx.stats.snapshot_extensions <- tx.stats.snapshot_extensions + 1;
  charge_validation tx Costs.snapshot_extend;
  if not (validate tx ~upto:now) then raise Retry_conflict;
  tx.start_ts <- now

(* The zombie guard.  Under the Global clock it is O(1): an unmoved
   clock means nothing committed since the snapshot, so the read set
   cannot have been invalidated.  Scan has no global instant to compare
   against, so the guard is a full validation. *)
let revalidate tx =
  match tx.clock with
  | Global ->
      charge_validation tx Costs.tvalidate_check;
      if Orec.clock tx.orecs > tx.start_ts then extend_snapshot tx
      else tx.stats.validations_skipped <- tx.stats.validations_skipped + 1
  | Scan -> if not (validate tx ~upto:tx.start_ts) then raise Retry_conflict

(* Validation fuel: the one bound on un-revalidated execution.  Every
   transactional operation burns one unit — owned, forwarded and
   capture-elided accesses and [tx_work] included, which no barrier slow
   path sees — so a zombie spinning on any of them dies within
   [Costs.fuel_budget] operations.  An empty tank forces the zombie
   guard and refills. *)
let burn_fuel tx =
  tx.fuel <- tx.fuel - 1;
  if tx.fuel = 0 then begin
    tx.fuel <- Costs.fuel_budget;
    tx.stats.fuel_exhaustions <- tx.stats.fuel_exhaustions + 1;
    revalidate tx
  end

(* Zombie pointer sandbox: a transaction on an invalid snapshot can
   compute garbage addresses (e.g. chase a next-pointer a concurrent
   commit redirected into a freed block).  Catch them at the barrier,
   before memory is touched: if the snapshot is still valid the error is
   the program's own and propagates; if not, it is phantom fallout —
   silently abort and retry. *)
let sandbox_bounds tx addr =
  if addr < 1 || addr >= Memory.size tx.memory then begin
    tx.stats.sandbox_bounds <- tx.stats.sandbox_bounds + 1;
    if validate tx ~upto:tx.start_ts then
      invalid_arg (Printf.sprintf "Txn: address %d outside memory" addr)
    else raise Retry_conflict
  end

(* ------------------------------------------------------------------ *)
(* Capture analysis in barriers (paper, Figure 2)                      *)

(* Every check below returns its verdict as an [access_class] — constant
   constructors, so an immediate — and adds the cycles it spent to
   [check_cost]. *)

(* The per-class counter of an access. *)
let count_elided (st : Stats.t) ~is_write cls =
  match (is_write, cls) with
  | _, Instrumented -> ()
  | false, Elided_static ->
      st.reads_elided_static <- st.reads_elided_static + 1
  | false, Elided_stack -> st.reads_elided_stack <- st.reads_elided_stack + 1
  | false, Elided_heap -> st.reads_elided_heap <- st.reads_elided_heap + 1
  | false, Elided_private ->
      st.reads_elided_private <- st.reads_elided_private + 1
  | true, Elided_static ->
      st.writes_elided_static <- st.writes_elided_static + 1
  | true, Elided_stack ->
      st.writes_elided_stack <- st.writes_elided_stack + 1
  | true, Elided_heap -> st.writes_elided_heap <- st.writes_elided_heap + 1
  | true, Elided_private ->
      st.writes_elided_private <- st.writes_elided_private + 1

(* One hierarchical heap capture check: classify the probe, charge the
   tier that answered, and account it.  Without fastpath the hierarchy
   degenerates to the bare backend probe at its usual price. *)
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
  th.check_cost <- th.check_cost + cost;
  match outcome with
  | Alloc_log.Mru_hit | Alloc_log.Backend_hit -> Elided_heap
  | Alloc_log.Summary_reject | Alloc_log.Backend_miss -> Instrumented

let private_check th addr size =
  if Alloc_log.size th.private_log > 0 then begin
    th.check_cost <- th.check_cost + Alloc_log.search_cost th.private_log;
    if Alloc_log.contains th.private_log ~lo:addr ~hi:(addr + size) then
      Elided_private
    else Instrumented
  end
  else Instrumented

(* The runtime stack and heap capture checks of one access: a stack or
   heap elision, or [Instrumented]. *)
let capture_check tx addr size =
  let sc = tx.config.Config.scope in
  let scope = innermost tx in
  if sc.check_stack then tx.check_cost <- tx.check_cost + Costs.stack_check;
  if
    sc.check_stack
    && Tstack.in_live_range tx.stack ~from_sp:scope.start_sp addr size
  then Elided_stack
  else
    match scope.capture_log with
    | Some log when sc.check_heap ->
        heap_capture_check tx log ~lo:addr ~hi:(addr + size)
    | Some _ | None -> Instrumented

(* The elision verdict of one access, its check cycles left in
   [check_cost].  Runtime analysis under +fp puts the site tier first: a
   site whose checks rarely hit is bypassed, and its access takes the
   same path as an access outside the check scope — private-log check,
   then the full barrier.  That is sound because the full barrier is
   correct for any address, captured or not (see [free] for the one
   hazard it had). *)
let try_elide tx addr size ~site ~is_write =
  let cfg = tx.config in
  tx.check_cost <- 0;
  match cfg.analysis with
  | Config.Compiler ->
      if Site.is_captured_static site then Elided_static
      else private_check tx addr size
  | Config.Baseline -> private_check tx addr size
  | Config.Runtime _ ->
      let sc = cfg.scope in
      let applies =
        (if is_write then sc.on_writes else sc.on_reads)
        && not (cfg.static_filter && Site.is_shared_static site)
      in
      if not applies then private_check tx addr size
      else begin
        if cfg.fastpath then tx.check_cost <- Costs.site_check;
        if cfg.fastpath && Site_tier.bypass tx.site_tier site then begin
          tx.stats.capture_site_bypasses <- tx.stats.capture_site_bypasses + 1;
          private_check tx addr size
        end
        else begin
          let cls = capture_check tx addr size in
          let captured = cls <> Instrumented in
          if cfg.fastpath then Site_tier.record tx.site_tier site ~hit:captured;
          if captured then cls else private_check tx addr size
        end
      end

(* Does a block the scope allocated (entries [0..k]) contain [lo, hi)? *)
let rec allocated_in scope ~lo ~hi k =
  k >= 0
  && ((scope.alloc_addrs.(k) <= lo
      && hi <= scope.alloc_addrs.(k) + scope.alloc_sizes.(k))
     || allocated_in scope ~lo ~hi (k - 1))

(* Audit-mode classification for Figure 8: the scope's own allocation
   record + the stack check decide captured-ness; [manual] sites are the
   paper's "required" estimate. *)
let audit_classify tx addr size ~site ~is_write =
  let scope = innermost tx in
  let st = tx.stats in
  let on_stack =
    Tstack.in_live_range tx.stack ~from_sp:scope.start_sp addr size
  in
  let on_heap =
    (not on_stack)
    && allocated_in scope ~lo:addr ~hi:(addr + size) (scope.n_allocs - 1)
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
(* Lock waits                                                          *)

(* Conflict accounting: one episode per wait (first spin only), keyed by
   the (waiter, owner) thread pair.  Pure counters — no cycle charges, no
   PRNG draws — so schedules are untouched. *)
let note_conflict th w =
  th.stats.conflict_episodes <- th.stats.conflict_episodes + 1;
  let owner = Orec.owner_of w in
  if owner <> th.tid then Stats.note_pair th.stats ~tid:th.tid ~peer:owner

(* Lock-wait spins an attempt may spend before it self-aborts.  An
   attempt that owns an orec gets [Costs.spin_limit], so no wait-for
   cycle passes through a long waiter.  One that owns nothing waits
   while the wait costs less than re-running the reads an abort would
   throw away (the spin-then-block break-even), never past the longest
   backoff window. *)
let wait_budget th =
  if th.n_acq > 0 then Costs.spin_limit
  else
    max Costs.spin_limit
      (min
         (th.n_reads * Costs.read_barrier)
         (Costs.backoff ~attempt:Costs.backoff_max_shift ~jitter:0)
      / Costs.lock_spin)

(* The doom scan: is the attempt lost whatever the wait brings?  It is
   once a read-log entry, from [k] on, is held locked by the blocker's
   [owner] (whose commit will move it), or has moved, is unlocked and
   fails the value rescue.  Each entry examined is charged as a
   validation step. *)
let rec doomed th ~owner k =
  k < th.n_reads
  && begin
       charge_validation th Costs.validate_per_read;
       let w = Orec.get th.orecs (Array.unsafe_get th.read_orecs k) in
       (w <> Array.unsafe_get th.read_words k
       && if Orec.is_locked w then Orec.owner_of w = owner
          else not (rescue_entry th k ~upto:th.start_ts))
       || doomed th ~owner (k + 1)
     end

(* One lock-wait spin on orec [oi], found holding the locked word [w].
   The attempt self-aborts, naming [oi] and [w] as its blocker for
   [backoff], once it has spun its [wait_budget], or at
   [Costs.spin_limit] spins if the budget is larger but the doom scan
   finds the attempt lost.  The scan runs once per wait, at exactly
   [Costs.spin_limit] spins (a wait whose count a re-read stepped past
   that mark skips it).  Natively a wait is a run of [cpu_relax]. *)
let spin_on_lock th oi w spins =
  th.stats.lock_waits <- th.stats.lock_waits + 1;
  if spins = 0 then note_conflict th w;
  if spins >= Costs.spin_limit then begin
    if
      spins >= wait_budget th
      || (spins = Costs.spin_limit && doomed th ~owner:(Orec.owner_of w) 0)
    then begin
      th.stats.spin_aborts <- th.stats.spin_aborts + 1;
      th.blocker <- oi;
      th.blocker_word <- w;
      raise Retry_conflict
    end;
    if spins = Costs.spin_limit then
      th.stats.waits_extended <- th.stats.waits_extended + 1
  end;
  th.platform.consume Costs.lock_spin;
  th.platform.yield ()

(* ------------------------------------------------------------------ *)
(* Orec acquisition                                                    *)

(* Lock orec [oi]; returns the unlocked word the lock replaced. *)
let rec acquire_loop tx oi spins =
  let w = Orec.get tx.orecs oi in
  if Orec.is_locked w then begin
    spin_on_lock tx oi w spins;
    acquire_loop tx oi (spins + 1)
  end
  else if Orec.try_lock tx.orecs oi ~owner:tx.tid ~expected:w then begin
    (* A read of this orec logged earlier in the attempt stays valid while
       the lock is held iff it read the version just replaced (see
       [read_entry_valid]). *)
    let logged = Int_map.find tx.read_index oi in
    if logged >= 0 && tx.read_words.(logged) = w then
      tx.read_words.(logged) <- tx.lock_word;
    tx.stats.orec_acquires <- tx.stats.orec_acquires + 1;
    push_acq tx oi w;
    w
  end
  else acquire_loop tx oi (spins + 1)

(* The eager barriers' encounter-time acquisition, at the write
   barrier's price. *)
let acquire tx oi =
  tx.platform.consume Costs.write_barrier_acquire;
  acquire_loop tx oi 0

(* ------------------------------------------------------------------ *)
(* Read barrier                                                        *)

(* [logged] is the orec's read-log position ([Int_map.find], -1 when
   fresh), probed once by its caller: only this thread adds entries, and
   nothing in the loop does before it returns. *)
let rec full_read_loop tx oi addr logged spins =
  let w1 = Orec.get tx.orecs oi in
  if Orec.is_locked w1 then begin
    spin_on_lock tx oi w1 spins;
    full_read_loop tx oi addr logged (spins + 1)
  end
  else begin
    (* Zero-cycle decision points around the data load, as in [release]:
       the checker can preempt between the two orec loads and the value,
       where a peer's in-place write and abort fit natively. *)
    tx.platform.consume 0;
    let v = mem_get tx addr in
    (* Debug mode: pin the data load before the confirming orec load even
       under a hypothetically weaker model (see Config.fences). *)
    if tx.config.Config.fences then fence tx;
    if logged < 0 && fault_fires tx Fault.Stale_read then begin
      (* Injected TOCTOU: open a scheduling window after the value load,
         then log whatever version the orec holds on the other side —
         skipping the w1=w2 sandwich and the +tv snapshot check.  If a
         commit lands in the window, [v] is stale yet the logged word is
         current, so commit-time validation passes a broken snapshot. *)
      tx.platform.consume 1;
      let w2 = Orec.get tx.orecs oi in
      if Orec.is_locked w2 then full_read_loop tx oi addr logged (spins + 1)
      else begin
        push_read tx oi w2 addr v;
        v
      end
    end
    else begin
    tx.platform.consume 0;
    let w2 = Orec.get tx.orecs oi in
    if w1 = w2 then begin
      (* Dedup: log each orec once; observing a *different* version than
         first logged is already a conflict.  The entry's forwarding pair
         moves to this read: (addr, v) is as current under the logged
         word as the pair it replaces. *)
      if logged >= 0 then begin
        if tx.read_words.(logged) <> w1 then raise Retry_conflict;
        if Array.unsafe_get tx.read_addrs logged <> addr then
          Array.unsafe_set tx.read_multi logged 1;
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
          match tx.clock with
          | Scan -> false
          | Global ->
              charge_validation tx Costs.ts_read_check;
              ts > tx.start_ts
        in
        if newer && not (Config.has_fault tx.config Fault.Skip_validation)
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

let owned_read tx addr =
  tx.platform.consume Costs.read_owned;
  mem_get tx addr

(* A read of an orec this attempt does not own; [logged] is its read-log
   position, -1 when fresh. *)
let unowned_read tx oi addr logged =
  if logged < 0 then begin
    tx.platform.consume Costs.read_barrier;
    full_read_loop tx oi addr logged 0
  end
  else
    let v = mem_get tx addr in
    if
      Array.unsafe_get tx.read_addrs logged = addr
      && v = Array.unsafe_get tx.read_vals logged
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
         logged value takes the line-mate path below.  The price is an
         owned read's: the map lookup plus one data load.  Under Scan a
         fresh read is logged unchecked, so a zombie spinning on re-reads
         of it is ended only by the fuel [read_at] burns. *)
      tx.stats.reads_forwarded <- tx.stats.reads_forwarded + 1;
      tx.platform.consume Costs.read_owned;
      v
    end
    else begin
      (* Line-mate read: another address under the logged orec (or this
         one, changed by the thread's own direct store).  The orec held
         the logged word when the entry was made, and a word never
         returns once it leaves an orec (an eager abort that wrote in
         place releases a fresh one, [abort_word]), so finding it again
         after the data load proves the orec never moved in between:
         [v] is current under the logged word.  One orec load replaces
         the sandwich; the charge sits between the two loads, the window
         a peer's commit can land in natively.  Any other word takes the
         full barrier, which spins on a lock or aborts on a newer
         version. *)
      tx.platform.consume Costs.read_owned;
      if tx.config.Config.fences then fence tx;
      if Orec.get tx.orecs oi = Array.unsafe_get tx.read_words logged then begin
        tx.stats.reads_line_mate <- tx.stats.reads_line_mate + 1;
        if Array.unsafe_get tx.read_addrs logged <> addr then
          Array.unsafe_set tx.read_multi logged 1;
        Array.unsafe_set tx.read_addrs logged addr;
        Array.unsafe_set tx.read_vals logged v;
        v
      end
      else begin
        tx.platform.consume Costs.read_barrier;
        full_read_loop tx oi addr logged 0
      end
    end

let full_read tx addr =
  let oi = Orec.index_of tx.orecs addr in
  if owns tx oi then owned_read tx addr
  else unowned_read tx oi addr (Int_map.find tx.read_index oi)

(* Read-for-write (the TM ABI's [_ITM_RfW]): the read of a
   read-modify-write whose write follows on every path that does not
   abort.  A fresh orec is acquired here, at the write barrier's price,
   and its value loaded under the lock: no read-log entry, so no
   validation or commit cost for it, and the write finds the orec owned.
   Under the Global clock the replaced version must still fit the
   snapshot, which is extended if it is newer, exactly as a fresh read's
   would be.  An orec this attempt already logged takes the plain read
   path: acquiring it would cost more than the forwarded read plus the
   write's acquisition. *)
let full_read_for_write tx addr =
  let oi = Orec.index_of tx.orecs addr in
  if owns tx oi then owned_read tx addr
  else
    let logged = Int_map.find tx.read_index oi in
    if logged >= 0 then unowned_read tx oi addr logged
    else begin
      let replaced = acquire tx oi in
      tx.stats.rfw_acquires <- tx.stats.rfw_acquires + 1;
      (match tx.clock with
      | Scan -> ()
      | Global ->
          charge_validation tx Costs.ts_read_check;
          if Orec.version_of replaced > tx.start_ts then extend_snapshot tx);
      mem_get tx addr
    end

(* The read barrier; [for_write] takes the read-for-write path at an
   instrumented access. *)
let read_with ~site ~for_write tx addr =
  let st = tx.stats in
  st.reads <- st.reads + 1;
  burn_fuel tx;
  sandbox_bounds tx addr;
  if fault_fires tx Fault.Spurious_abort then raise Retry_conflict;
  if tx.config.Config.audit then audit_classify tx addr 1 ~site ~is_write:false;
  (* Lazy versioning: probe the write set *before* the capture check —
     one AND on the summary word when the set cannot hold the address.
     The order matters: a nested scope can buffer a write to memory an
     enclosing scope captured (and would elide), and the buffered value
     is newer than what memory holds.  Only lazy entries hold new values:
     an eager entry's value is the old word, never a read's answer. *)
  let redo_i =
    if tx.config.Config.lazy_versioning then begin
      tx.platform.consume Costs.redo_summary_check;
      Write_set.probe tx.wset addr
    end
    else -1
  in
  if redo_i >= 0 then begin
    st.redo_hits <- st.redo_hits + 1;
    tx.platform.consume Costs.redo_lookup;
    let value = Write_set.value tx.wset redo_i in
    emit_read tx.tid addr value Instrumented;
    value
  end
  else begin
    let cls = try_elide tx addr 1 ~site ~is_write:false in
    let value =
      match cls with
      | Instrumented ->
          tx.platform.consume tx.check_cost;
          if for_write then full_read_for_write tx addr else full_read tx addr
      | _ ->
          count_elided st ~is_write:false cls;
          tx.platform.consume (tx.check_cost + Costs.direct_access);
          mem_get tx addr
    in
    emit_read tx.tid addr value cls;
    value
  end

let read_at ~site tx addr = read_with ~site ~for_write:false tx addr

(* One path for both engines.  Under lazy versioning the orec acquired
   here is held until commit, as an eager one is; the write that follows
   buffers as usual and [lazy_acquire] skips the owned orec. *)
let read_for_write_at ~site tx addr = read_with ~site ~for_write:true tx addr

let read tx addr = read_at ~site:Site.anonymous_read tx addr

(* ------------------------------------------------------------------ *)
(* Write barrier                                                       *)

(* A rewrite of write-set entry [i], whose value until now is [cur]
   (the memory word under eager versioning, the buffered one under
   lazy).  The first rewrite in a scope of an entry an outer scope made
   journals [cur] so that the scope's partial abort can put it back;
   the entry's stamp tells whether this scope, or a child that committed
   into it, already did.  At top level every stamp passes: top-level
   abort restores or drops the whole write set. *)
let rewrite tx i cur =
  let st = tx.stats and serial = (innermost tx).serial in
  st.waw_hits <- st.waw_hits + 1;
  let stamp = Write_set.stamp tx.wset i in
  if stamp >= serial then tx.platform.consume Costs.waw_hit
  else begin
    tx.platform.consume Costs.undo_log_entry;
    st.undo_entries <- st.undo_entries + 1;
    push_undo tx (Write_set.addr tx.wset i) cur stamp;
    Write_set.set_stamp tx.wset i serial
  end

let full_write tx addr v =
  let oi = Orec.index_of tx.orecs addr in
  if owns tx oi then tx.platform.consume Costs.write_barrier_owned
  else ignore (acquire tx oi : int);
  let old = mem_get tx addr in
  let i = Write_set.probe tx.wset addr in
  if i >= 0 then rewrite tx i old
  else begin
    tx.platform.consume Costs.undo_log_entry;
    tx.stats.undo_entries <- tx.stats.undo_entries + 1;
    Write_set.insert tx.wset addr old ~stamp:(innermost tx).serial
  end;
  tx.wrote_in_place <- true;
  mem_set tx addr v

(* The direct store of an elided write.  Durably, captured
   (stack/heap/static) stores need no WAL entry — stacks are transient
   and own-allocation images ride in the commit record.  Private stores
   are immediately visible shared state and survive aborts, so they are
   logged raw. *)
let direct_store tx cls addr v =
  count_elided tx.stats ~is_write:true cls;
  tx.platform.consume (tx.check_cost + Costs.direct_access);
  if tx.wal <> None then begin
    match cls with
    | Elided_private -> wal_raw tx addr v
    | _ -> tx.stats.wal_skips <- tx.stats.wal_skips + 1
  end;
  mem_set tx addr v

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
  let st = tx.stats in
  tx.platform.consume Costs.redo_summary_check;
  let i = Write_set.probe tx.wset addr in
  if i >= 0 then begin
    (* Write-after-write in the buffer: update in place (publish order
       keeps the first-insert slot). *)
    tx.platform.consume Costs.redo_lookup;
    rewrite tx i (Write_set.value tx.wset i);
    Write_set.set_value tx.wset i v;
    emit_write tx.tid addr v Instrumented
  end
  else begin
    let cls = try_elide tx addr 1 ~site ~is_write:true in
    (match cls with
    | Instrumented ->
        tx.platform.consume tx.check_cost;
        (* Injected fault: the store is lost on the way into the buffer —
           the transaction commits without it. *)
        if not (fault_fires tx Fault.Redo_drop) then begin
          tx.platform.consume Costs.redo_insert;
          st.redo_inserts <- st.redo_inserts + 1;
          Write_set.insert tx.wset addr v ~stamp:(innermost tx).serial
        end
    | _ ->
        (* Captured/private/static: direct store, no buffer entry, no
           commit-time write-back.  Direct stores touch memory now, so
           the sandbox bounds guard applies here. *)
        sandbox_bounds tx addr;
        st.redo_skips <- st.redo_skips + 1;
        direct_store tx cls addr v);
    emit_write tx.tid addr v cls
  end

(* An eager write touches memory at once, so its bounds guard runs
   before anything else; a lazy one defers the guard to its direct store
   or to commit ([lazy_write]). *)
let write_at ~site tx addr v =
  let st = tx.stats in
  st.writes <- st.writes + 1;
  burn_fuel tx;
  let lazy_v = tx.config.Config.lazy_versioning in
  if not lazy_v then sandbox_bounds tx addr;
  if fault_fires tx Fault.Spurious_abort then raise Retry_conflict;
  if tx.config.Config.audit then audit_classify tx addr 1 ~site ~is_write:true;
  if lazy_v then lazy_write tx addr v ~site
  else begin
    let cls = try_elide tx addr 1 ~site ~is_write:true in
    (match cls with
    | Instrumented ->
        tx.platform.consume tx.check_cost;
        full_write tx addr v
    | _ -> direct_store tx cls addr v);
    emit_write tx.tid addr v cls
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
  match scope.capture_log with
  | Some log ->
      (* Injected fault: the allocation never reaches the capture log, so
         later accesses to the block miss the elision check and take full
         barriers — lost performance, never lost safety. *)
      if fault_fires tx Fault.Alloc_log_drop then ()
      else begin
        tx.platform.consume
          (Alloc_log.add_cost log ~lo:addr ~hi:(addr + size));
        capture_log_add tx log ~lo:addr ~hi:(addr + size)
      end
  | None -> ()

let alloc tx n =
  burn_fuel tx;
  tx.platform.consume Costs.alloc;
  tx.stats.tx_allocs <- tx.stats.tx_allocs + 1;
  let addr = Alloc.alloc tx.arena n in
  let size = Alloc.block_size tx.arena addr in
  log_alloc tx addr size;
  emit tx.tid (Ev_alloc { addr; size });
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
    sz
  end

(* A block this scope allocated and now frees is dead, and so are the
   instrumented writes into it: a write-set or journal entry would be
   rolled back (eager), or published (lazy), over the free-list link
   [Alloc.free] stores in the block's first word — a lost block after an
   abort, or a corrupted free list after a lazy commit — and would
   outlive the block into its next carving.  Writes to a block happen
   after its allocation, so only the entries logged since this scope
   began are scanned; none are charged. *)
let drop_block_entries tx scope ~lo ~hi =
  Write_set.remove_range tx.wset ~from:scope.wset_mark ~lo ~hi;
  let j = ref scope.undo_mark in
  for k = scope.undo_mark to tx.n_undo - 1 do
    let a = tx.undo_addrs.(k) in
    if a < lo || a >= hi then begin
      tx.undo_addrs.(!j) <- a;
      tx.undo_vals.(!j) <- tx.undo_vals.(k);
      tx.undo_stamps.(!j) <- tx.undo_stamps.(k);
      incr j
    end
  done;
  tx.n_undo <- !j

let free tx addr =
  burn_fuel tx;
  tx.platform.consume Costs.free;
  tx.stats.tx_frees <- tx.stats.tx_frees + 1;
  let scope = innermost tx in
  emit tx.tid (Ev_free { addr });
  let size = unlog_alloc scope addr in
  if size >= 0 then begin
    (* Allocated by this very scope: really free it now. *)
    drop_block_entries tx scope ~lo:addr ~hi:(addr + size);
    Alloc.free tx.arena addr
  end
  else
    (* Not ours (or an outer scope's): the free takes effect only if the
       whole transaction commits. *)
    push_dfree scope addr

let alloca tx n =
  burn_fuel tx;
  tx.platform.consume Costs.alloca;
  let addr = Tstack.alloca tx.stack n in
  emit tx.tid (Ev_alloca { addr; size = n });
  addr

(* ------------------------------------------------------------------ *)
(* Annotation API (paper, Figure 7)                                    *)

let add_private_block th ~addr ~size =
  if size <= 0 then invalid_arg "Txn.add_private_block";
  ignore
    (Alloc_log.add th.private_log ~lo:addr ~hi:(addr + size) : Alloc_log.added)

let remove_private_block th ~addr ~size =
  ignore (Alloc_log.remove th.private_log ~lo:addr ~hi:(addr + size) : bool)

(* ------------------------------------------------------------------ *)
(* Begin / commit / abort                                              *)

let push_scope tx ~top =
  (* Nested scopes answer capture questions relative to themselves
     (paper §2.2.1): fresh logs. *)
  let capture_log =
    if top then tx.top_capture_log else new_capture_log tx.config
  in
  (* A nested scope must not trust the entries its parent wrote: an
     address the outer scope logged still needs a journal entry inside
     the child, or partial abort cannot restore it (the paper's §2.2.1
     live-in observation, applied to the write set); the fresh serial
     makes every older stamp fall short ([rewrite]). *)
  let serial = tx.scope_serial in
  tx.scope_serial <- serial + 1;
  tx.scopes <-
    {
      start_sp = Tstack.save tx.stack;
      undo_mark = tx.n_undo;
      wset_mark = Write_set.size tx.wset;
      serial;
      capture_log;
      alloc_addrs = empty_ints;
      alloc_sizes = empty_ints;
      n_allocs = 0;
      dfree_addrs = empty_ints;
      n_dfrees = 0;
    }
    :: tx.scopes;
  if not top then emit tx.tid Ev_scope_begin

let begin_top tx ~attempt =
  (* Small random jitter decorrelates thread phases (memory and pipeline
     variance on a real machine). *)
  tx.platform.consume (Costs.txn_begin + Prng.int tx.prng 8);
  (* EBR: publish "running at the epoch I just observed" before any read
     can happen.  The freeing side stamps limbo entries with the global
     epoch at commit, so this announcement is exactly what holds the
     global back from advancing two steps while this attempt runs. *)
  (match tx.reclaim with
  | None -> ()
  | Some r ->
      tx.platform.consume Costs.ebr_announce;
      Reclaim.announce r);
  tx.n_reads <- 0;
  Int_map.next_attempt tx.read_index;
  tx.n_undo <- 0;
  tx.n_acq <- 0;
  tx.wrote_in_place <- false;
  tx.fuel <- Costs.fuel_budget;
  tx.blocker <- -1;
  (* Only the Global clock has a snapshot timestamp; skipping the clock
     read keeps Scan's begin clock-free. *)
  tx.start_ts <- (match tx.clock with Global -> Orec.clock tx.orecs | Scan -> 0);
  Write_set.clear tx.wset;
  (match tx.top_capture_log with Some l -> Alloc_log.clear l | None -> ());
  tx.scopes <- [];
  push_scope tx ~top:true;
  emit tx.tid (Ev_begin { attempt })

(* Eager rollback of the write-set entries from [from] on, newest
   first: each address gets back the word it held before its first
   write.  Returns the number of entries restored.  (Lazy entries never
   reached memory: there is nothing to restore.) *)
let restore_writes tx ~from =
  let ws = tx.wset in
  for k = Write_set.size ws - 1 downto from do
    Memory.set tx.memory (Write_set.addr ws k) (Write_set.value ws k)
  done;
  Write_set.size ws - from

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
   acquired: [restore_prev] puts that version back (an abort that wrote
   nothing in place), [bump_prev] stores it plus one (Scan commit, or a
   Scan abort that did, [abort_word]). *)
let restore_prev = -1
let bump_prev = -2

(* Orec release walks the acquisition log in order, and is not atomic:
   between two consecutive releases a zero-cycle [consume] is a decision
   point the checker can preempt at, so a peer may observe one orec
   released while the next is still held.  Outside the checker a
   zero-cycle charge never reaches the scheduler's deadline (and is free
   natively), so schedules are untouched. *)
let release tx ~word =
  for k = 0 to tx.n_acq - 1 do
    if k > 0 then tx.platform.consume 0;
    Orec.unlock tx.orecs tx.acq_orecs.(k)
      (if word >= 0 then word
       else
         let prev = tx.acq_prev.(k) in
         if word = bump_prev then Orec.bumped prev else prev)
  done;
  tx.n_acq <- 0

let commit_epilogue tx =
  let scope = innermost tx in
  (match tx.reclaim with
  | None ->
      (* Newest-first, matching the order the old cons-list executed in. *)
      for k = scope.n_dfrees - 1 downto 0 do
        Alloc.free tx.arena scope.dfree_addrs.(k)
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
        if fault_fires tx Fault.Premature_reuse then
          Alloc.free tx.arena addr
        else begin
          tx.platform.consume Costs.limbo_push;
          Reclaim.retire r ~addr ~size:(Alloc.block_size tx.arena addr)
        end
      done;
      let st = tx.stats in
      st.limbo_blocks <- max st.limbo_blocks (Reclaim.pending r);
      st.limbo_words <- max st.limbo_words (Reclaim.pending_words r);
      ebr_exit tx r);
  tx.scopes <- [];
  tx.stats.commits <- tx.stats.commits + 1

(* Lazy versioning, commit phase 1: acquire every write-set orec, in
   first-insert order.  The write barrier deferred both
   the bounds guard and the acquisition; garbage addresses a zombie
   buffered surface here, before any store — [sandbox_bounds] keeps
   its validate-then-classify contract (program bug vs. phantom).
   Lock-wait patience bounds deadlock exactly as the eager barrier's
   acquisition does. *)
let lazy_acquire tx =
  let ws = tx.wset in
  for k = 0 to Write_set.size ws - 1 do
    let addr = Write_set.addr ws k in
    sandbox_bounds tx addr;
    let oi = Orec.index_of tx.orecs addr in
    if not (owns tx oi) then begin
      tx.platform.consume Costs.commit_acquire;
      ignore (acquire_loop tx oi 0 : int)
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
  let ws = tx.wset in
  let n = Write_set.size ws in
  if n > 0 then begin
    let cost = Costs.publish_per_entry * n in
    tx.stats.publish_cycles <- tx.stats.publish_cycles + cost;
    tx.platform.consume cost;
    let limit = if fault_fires tx Fault.Publish_partial then n / 2 else n in
    (* Injected crash: the process dies after writing back the first
       half of the buffer — memory holds a partial transaction whose
       commit record never reached the log. *)
    let crash_at =
      if tx.wal <> None && fault_fires tx Fault.Crash_mid_publish then n / 2
      else -1
    in
    for k = 0 to limit - 1 do
      if k = crash_at then wal_crash tx;
      mem_set tx (Write_set.addr ws k) (Write_set.value ws k)
    done
  end

(* Durable commit: build the redo-style record and append it at the
   serialization point: the write set's addresses in first-write order,
   each with its new value — the buffered one under [+lazy], the
   current memory word under eager versioning (the in-place stores
   already happened) — so both engines log the same write set.
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
  match tx.wal with
  | None -> 0
  | Some w ->
      let ws = tx.wset in
      let writes =
        Array.init (Write_set.size ws) (fun k ->
            let a = Write_set.addr ws k in
            ( a,
              if tx.config.Config.lazy_versioning then Write_set.value ws k
              else mem_get tx a ))
      in
      let scope = innermost tx in
      let allocs =
        Array.init scope.n_allocs (fun k ->
            let addr = scope.alloc_addrs.(k) in
            let size = Alloc.block_size tx.arena addr in
            (addr, size, Array.init size (fun i -> mem_get tx (addr + i))))
      in
      let frees = Array.sub scope.dfree_addrs 0 scope.n_dfrees in
      if
        Array.length writes > 0
        || Array.length allocs > 0
        || Array.length frees > 0
      then begin
        let words = Wal.commit_record_words ~writes ~allocs ~frees in
        tx.platform.consume (Costs.wal_append_per_word * words);
        (* Injected crash: the fsync tears mid-record — a byte prefix
           reaches the log, nothing is acknowledged, the process dies.
           Group commit is suppressed so the record is still pending
           when the tear happens.  [Torn_tail_replayed] tears here too;
           its bug is in recovery. *)
        if
          fault_fires tx Fault.Torn_wal_record
          || fault_fires tx Fault.Torn_tail_replayed
        then begin
          let bytes, _ =
            Wal.append_commit ~group_commit:false w ~tid:tx.tid ~writes
              ~allocs ~frees
          in
          Wal.crash_torn w ~cut:(1 + Prng.int tx.prng (max 1 (bytes - 1)));
          raise Wal.Crashed
        end;
        if
          wal_account tx
            (Wal.append_commit w ~tid:tx.tid ~writes ~allocs ~frees)
        then Costs.wal_fsync
        else 0
      end
      else 0

(* Serialization point of a writing commit: write back buffered values
   (lazy), log the commit durably, emit the commit event — in that
   order, with crash points bracketing the sequence.  Returns the fsync
   cycles the append owes ([wal_append_commit]). *)
let commit_serialize tx =
  if tx.config.Config.lazy_versioning then publish tx
  else
    (* Eager "mid-publish": stores are already in place from the body;
       the crash window is after them and before the WAL append. *)
    crash_point tx Fault.Crash_mid_publish;
  let fsync = wal_append_commit tx in
  emit tx.tid Ev_commit;
  (* Post-publish crash: force the fsync first — the record is durable,
     the acknowledgement was delivered, and the process dies before a
     single orec release.  Recovery must replay this commit. *)
  if tx.wal <> None && fault_fires tx Fault.Crash_post_publish then begin
    (match tx.wal with Some w -> Wal.sync w | None -> ());
    wal_crash tx
  end;
  fsync

(* Commit-time validation: charge the commit, prove the read set still
   consistent (or raise), and return the word {!release} stores into the
   acquired orecs. *)
let commit_validate tx =
  match tx.clock with
  | Global ->
      tx.platform.consume
        (Costs.commit_base + Costs.clock_advance
        + (Costs.commit_per_orec * tx.n_acq));
      let wv =
        (* Injected fault: stamp with the clock's current value without
           advancing it — released orecs look no newer than the last
           real commit, so O(1) snapshot checks wrongly accept them. *)
        if fault_fires tx Fault.Clock_stall then Orec.clock tx.orecs
        else begin
          tx.stats.clock_advances <- tx.stats.clock_advances + 1;
          Orec.advance_clock tx.orecs
        end
      in
      if wv - 1 = tx.start_ts then begin
        (* No commit landed since the snapshot: the read set is still
           current by construction; the O(n_reads) scan is one compare. *)
        charge_validation tx Costs.tvalidate_check;
        tx.stats.validations_skipped <- tx.stats.validations_skipped + 1
      end
      else begin
        tx.platform.consume (Costs.commit_per_read * tx.n_reads);
        if not (validate tx ~upto:wv) then raise Retry_conflict
      end;
      Orec.stamped ~ts:wv
  | Scan ->
      tx.platform.consume
        (Costs.commit_base
        + (Costs.commit_per_read * tx.n_reads)
        + (Costs.commit_per_orec * tx.n_acq));
      if not (validate tx ~upto:tx.start_ts) then raise Retry_conflict;
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
  (* Injected crash: death at commit entry — nothing acquired, nothing
     published, nothing logged.  Recovery must show none of it. *)
  crash_point tx Fault.Crash_pre_commit;
  (* Lazy mode acquires the write set up front; [tx.n_acq] below then
     means the same thing it does in eager mode (notably for the
     read-only fast path: an empty buffer acquired nothing). *)
  if tx.config.Config.lazy_versioning then lazy_acquire tx;
  let fsync =
    if tx.clock <> Scan && tx.n_acq = 0 then begin
      (* Read-only fast path: every read was checked against the snapshot
         as it happened, so the read set is a consistent snapshot by
         construction — serialize there.  No validation scan, no clock
         bump, nothing to release. *)
      tx.platform.consume Costs.commit_base;
      tx.stats.readonly_fast_commits <- tx.stats.readonly_fast_commits + 1;
      (* Acquired nothing, but may still have durable effects: an
         alloc-only transaction (every write elided into its own blocks)
         reaches here with a nonempty alloc set whose images must survive
         — append its record.  True read-only commits append nothing,
         keeping the fast path fast. *)
      let fsync = wal_append_commit tx in
      emit tx.tid Ev_commit;
      fsync
    end
    else begin
      let word = commit_validate tx in
      let fsync = commit_serialize tx in
      if tx.n_acq > 0 && fault_fires tx Fault.Delayed_unlock then
        tx.platform.consume Costs.fault_unlock_delay;
      release tx ~word;
      fsync
    end
  in
  if fsync > 0 then tx.platform.consume fsync;
  commit_epilogue tx

(* The word an aborting attempt releases its orecs with.  An attempt
   that never stored in place (lazy versioning, or eager before its
   first write) puts each orec's old version back.  One that did hands
   out a word no orec held before: a reader may have loaded its
   uncommitted store between two loads of the orec, and finding the old
   word on the far side must not vouch for that value (the line-mate
   read in [unowned_read] rests on this, and so does the sandwich of
   [full_read_loop]).  Under Scan that is the old version + 1, the word
   a commit would store; under Global a fresh clock value, since the
   old version + 1 could equal the stamp the next commit draws while
   the clock has not moved. *)
let abort_word tx =
  if not tx.wrote_in_place then restore_prev
  else
    match tx.clock with
    | Scan -> bump_prev
    | Global ->
        tx.platform.consume Costs.clock_advance;
        tx.stats.clock_advances <- tx.stats.clock_advances + 1;
        Orec.stamped ~ts:(Orec.advance_clock tx.orecs)

(* Top-level abort: the write set's old values are the pre-transaction
   image, so the journal is not replayed (the next begin clears both);
   lazy buffered writes never touched memory, so dropping them IS the
   rollback. *)
let abort_top tx ~user =
  tx.platform.consume Costs.abort_base;
  if not tx.config.Config.lazy_versioning then
    tx.platform.consume (Costs.abort_per_undo * restore_writes tx ~from:0);
  release tx ~word:(abort_word tx);
  (* Free speculative allocations scope by scope, innermost first. *)
  List.iter (fun scope -> free_scope_allocs tx scope) tx.scopes;
  (* Restore the stack to the outermost scope's entry point. *)
  (match List.rev tx.scopes with
  | outermost :: _ -> Tstack.restore tx.stack outermost.start_sp
  | [] -> ());
  tx.scopes <- [];
  if user then tx.stats.user_aborts <- tx.stats.user_aborts + 1
  else tx.stats.aborts <- tx.stats.aborts + 1;
  (match tx.reclaim with None -> () | Some r -> ebr_exit tx r);
  emit tx.tid (Ev_abort { user })

(* Nested commit: fold the child scope into its parent. *)
let commit_scope tx =
  match tx.scopes with
  | [] | [ _ ] -> invalid_arg "Txn.commit_scope: no nested scope"
  | child :: (parent :: _ as rest) ->
      (* Oldest-first append keeps the parent's log in allocation order,
         exactly as the old list fold over [List.rev child.allocs] did. *)
      for k = 0 to child.n_allocs - 1 do
        let addr = child.alloc_addrs.(k) and size = child.alloc_sizes.(k) in
        push_alloc parent addr size;
        match parent.capture_log with
        | Some log -> capture_log_add tx log ~lo:addr ~hi:(addr + size)
        | None -> ()
      done;
      for k = 0 to child.n_dfrees - 1 do
        push_dfree parent child.dfree_addrs.(k)
      done;
      tx.scopes <- rest;
      tx.stats.nested_commits <- tx.stats.nested_commits + 1;
      emit tx.tid Ev_scope_commit

(* Nested (partial) abort: roll the child scope back, keep the parent
   running.  Acquired orecs are kept (safe, merely pessimistic).  The
   child's journal is replayed newest first — into memory (eager) or the
   buffer (lazy), each entry's stamp put back — and only then are the
   child's fresh inserts (a suffix of the write set) restored and
   dropped: a grandchild may have journalled an entry the child
   inserted. *)
let abort_scope tx =
  match tx.scopes with
  | [] | [ _ ] -> invalid_arg "Txn.abort_scope: no nested scope"
  | child :: rest ->
      let ws = tx.wset in
      tx.platform.consume Costs.abort_base;
      for k = tx.n_undo - 1 downto child.undo_mark do
        let a = tx.undo_addrs.(k) and v = tx.undo_vals.(k) in
        let i = Write_set.find ws a in
        Write_set.set_stamp ws i tx.undo_stamps.(k);
        if tx.config.Config.lazy_versioning then Write_set.set_value ws i v
        else Memory.set tx.memory a v
      done;
      let restored =
        if tx.config.Config.lazy_versioning then 0
        else restore_writes tx ~from:child.wset_mark
      in
      tx.platform.consume
        (Costs.abort_per_undo * (tx.n_undo - child.undo_mark + restored));
      tx.n_undo <- child.undo_mark;
      Write_set.truncate ws child.wset_mark;
      free_scope_allocs tx child;
      Tstack.restore tx.stack child.start_sp;
      tx.scopes <- rest;
      tx.stats.nested_aborts <- tx.stats.nested_aborts + 1;
      emit tx.tid Ev_scope_abort

(* ------------------------------------------------------------------ *)
(* The atomic runner                                                   *)

(* Post-abort wait before retry [attempt + 1], within the window
   [Costs.backoff] draws from one [Prng.int] of jitter per abort.  An
   attempt that spun out on a lock ([blocker] set) polls that orec in
   lock-spin steps and retries as soon as the orec no longer holds the
   locked word seen, or once the window is used up: a lock-wait abort never
   waits longer than the window, and every other abort waits all of it.
   The window is at most 2048 jitter-free cycles, under
   [Platform.native_relax]'s sleep threshold, so a native retry spins
   unless its jitter pushes it past.  [attempt] is also the transaction's
   run of consecutive conflict aborts so far. *)
let backoff th attempt =
  let st = th.stats in
  if attempt > st.cm_max_consec_aborts then st.cm_max_consec_aborts <- attempt;
  let jitter = Prng.int th.prng 64 in
  let cycles = Costs.backoff ~attempt ~jitter in
  (* Native domains really wait ([relax] is a no-op on the simulator,
     where [consume] just charged the wait as virtual time). *)
  let rec poll waited =
    if waited >= cycles || Orec.get th.orecs th.blocker <> th.blocker_word
    then waited
    else begin
      let step = min Costs.lock_spin (cycles - waited) in
      th.platform.consume step;
      th.platform.relax step;
      th.platform.yield ();
      poll (waited + step)
    end
  in
  let waited =
    if th.blocker >= 0 then poll 0
    else begin
      th.platform.consume cycles;
      th.platform.relax cycles;
      cycles
    end
  in
  st.backoff_cycles <- st.backoff_cycles + waited;
  th.platform.yield ()

type 'a outcome = Committed of 'a | Conflict | Userabort | Failed of exn

let in_txn th = th.scopes <> []

let atomic tx f =
  if in_txn tx then begin
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
      begin_top tx ~attempt:n;
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
            if validate tx ~upto:tx.start_ts then Failed e
            else begin
              tx.stats.sandbox_aborts <- tx.stats.sandbox_aborts + 1;
              Conflict
            end
      in
      match outcome with
      | Committed r -> r
      | Conflict ->
          abort_top tx ~user:false;
          backoff tx n;
          attempt (n + 1)
      | Userabort ->
          abort_top tx ~user:true;
          raise User_abort
      | Failed e ->
          abort_top tx ~user:false;
          raise e
    in
    attempt 1
  end

let abort _tx = raise User_abort
let restart _tx = raise Retry_conflict

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
  tx.platform.consume cycles

let thread_stats th = th.stats
let thread_id th = th.tid
let thread_stack th = th.stack
let thread_prng th = th.prng
