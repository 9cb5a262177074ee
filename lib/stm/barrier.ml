(* The read and write barriers, eager and lazy, and transactional
   allocation.  Writes the read log, the write set (its journal
   included), [wrote_in_place], and the innermost scope's allocation and
   deferred-free logs. *)

open Descriptor

(* Read-log entry [k] now speaks for the read of [v] at [addr], as current
   under its word as the pair it replaces (read-after-read forwarding,
   [unowned_read]); a second address marks it multi. *)
let forward_pair tx k addr v =
  if Array.unsafe_get tx.read_addrs k <> addr then
    Array.unsafe_set tx.read_multi k 1;
  Array.unsafe_set tx.read_addrs k addr;
  Array.unsafe_set tx.read_vals k v;
  v

(* ------------------------------------------------------------------ *)
(* Read barrier                                                        *)

(* [logged] is the orec's read-log position ([Int_map.find], -1 when
   fresh), probed once by its caller: only this thread adds entries, and
   nothing in the loop does before it returns. *)
let rec full_read_loop tx oi addr logged spins =
  let w1 = Orec.get tx.orecs oi in
  if Orec.is_locked w1 then begin
    Lock_wait.spin_on_lock tx oi w1 spins;
    full_read_loop tx oi addr logged (spins + 1)
  end
  else begin
    (* Zero-cycle decision points around the data load, as in
       [Commit.release]: the checker can preempt between the two orec
       loads and the value, where a peer's in-place write and abort fit
       natively. *)
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
         moves to this read. *)
      if logged >= 0 then begin
        if tx.read_words.(logged) <> w1 then raise Retry_conflict;
        forward_pair tx logged addr v
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
              Validation.charge_validation tx Costs.ts_read_check;
              ts > tx.start_ts
        in
        if newer && not (Config.has_fault tx.config Fault.Skip_validation)
        then begin
          Validation.extend_snapshot tx;
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
         place releases a fresh one, [Commit.abort_word]), so finding it
         again after the data load proves the orec never moved in between:
         [v] is current under the logged word.  One orec load replaces
         the sandwich; the charge sits between the two loads, the window
         a peer's commit can land in natively.  Any other word takes the
         full barrier, which spins on a lock or aborts on a newer
         version. *)
      tx.platform.consume Costs.read_owned;
      if tx.config.Config.fences then fence tx;
      if Orec.get tx.orecs oi = Array.unsafe_get tx.read_words logged then begin
        tx.stats.reads_line_mate <- tx.stats.reads_line_mate + 1;
        forward_pair tx logged addr v
      end
      else begin
        tx.platform.consume Costs.read_barrier;
        full_read_loop tx oi addr logged 0
      end
    end

(* An instrumented read.  [for_write] makes it a read-for-write (the TM
   ABI's [_ITM_RfW]): the read of a read-modify-write whose write
   follows on every path that does not abort.  A fresh orec is then
   acquired here, at the write barrier's price, and its value loaded
   under the lock: no read-log entry, so no validation or commit cost
   for it, and the write finds the orec owned.  Under the Global clock
   the replaced version must still fit the snapshot, which is extended
   if it is newer, exactly as a fresh read's would be.  An orec this
   attempt already logged takes the plain read path: acquiring it would
   cost more than the forwarded read plus the write's acquisition. *)
let full_read ~for_write tx addr =
  let oi = Orec.index_of tx.orecs addr in
  if Validation.owns tx oi then owned_read tx addr
  else
    let logged = Int_map.find tx.read_index oi in
    if logged >= 0 || not for_write then unowned_read tx oi addr logged
    else begin
      let replaced = Lock_wait.acquire tx oi in
      tx.stats.rfw_acquires <- tx.stats.rfw_acquires + 1;
      (match tx.clock with
      | Scan -> ()
      | Global ->
          Validation.charge_validation tx Costs.ts_read_check;
          if Orec.version_of replaced > tx.start_ts then
            Validation.extend_snapshot tx);
      mem_get tx addr
    end

(* The read barrier; [for_write] takes the read-for-write path at an
   instrumented access.  A plain read at an init-only site is served
   after the write-set probe: under +lazy an init store whose capture
   check was bypassed sits in the buffer, not in memory. *)
let read_with ~site ~for_write tx addr =
  let st = tx.stats in
  st.reads <- st.reads + 1;
  Validation.burn_fuel tx;
  Validation.sandbox_bounds tx addr;
  if fault_fires tx Fault.Spurious_abort then raise Retry_conflict;
  if tx.config.Config.audit then
    Elision.audit_classify tx addr 1 ~site ~is_write:false;
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
  else if (not for_write) && Site.is_init_only site then begin
    (* Init-only read: the word was stored while its block was captured
       (or before any thread ran) and cannot change until the block is
       freed, so it needs no capture check and no read-log entry.  The
       pointer that reached the block came through a validated read,
       and under +ebr the block is not recarved while this attempt lives
       (DESIGN.md, "Init-only reads"). *)
    Elision.count_elided st ~is_write:false Elided_init;
    tx.platform.consume Costs.direct_access;
    let value = mem_get tx addr in
    emit_read tx.tid addr value Elided_init;
    value
  end
  else begin
    let cls = Elision.try_elide tx addr 1 ~site ~is_write:false in
    let value =
      match cls with
      | Instrumented ->
          tx.platform.consume tx.check_cost;
          full_read ~for_write tx addr
      | _ ->
          Elision.count_elided st ~is_write:false cls;
          tx.platform.consume (tx.check_cost + Costs.direct_access);
          mem_get tx addr
    in
    emit_read tx.tid addr value cls;
    value
  end

let read_at ~site tx addr = read_with ~site ~for_write:false tx addr

(* One path for both engines.  Under lazy versioning the orec acquired
   here is held until commit, as an eager one is; the write that follows
   buffers as usual and [Commit.lazy_acquire] skips the owned orec. *)
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
  if Write_set.stamp tx.wset i >= serial then
    tx.platform.consume Costs.waw_hit
  else begin
    tx.platform.consume Costs.undo_log_entry;
    st.undo_entries <- st.undo_entries + 1;
    Write_set.journal tx.wset i cur ~serial
  end

let full_write tx addr v =
  let oi = Orec.index_of tx.orecs addr in
  if Validation.owns tx oi then tx.platform.consume Costs.write_barrier_owned
  else ignore (Lock_wait.acquire tx oi : int);
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
  Elision.count_elided tx.stats ~is_write:true cls;
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
   commit-time acquisition ([Commit.lazy_acquire]). *)
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
    let cls = Elision.try_elide tx addr 1 ~site ~is_write:true in
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
        Validation.sandbox_bounds tx addr;
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
  Validation.burn_fuel tx;
  let lazy_v = tx.config.Config.lazy_versioning in
  if not lazy_v then Validation.sandbox_bounds tx addr;
  if fault_fires tx Fault.Spurious_abort then raise Retry_conflict;
  if tx.config.Config.audit then
    Elision.audit_classify tx addr 1 ~site ~is_write:true;
  if lazy_v then lazy_write tx addr v ~site
  else begin
    let cls = Elision.try_elide tx addr 1 ~site ~is_write:true in
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
        Elision.capture_log_add tx log ~lo:addr ~hi:(addr + size)
      end
  | None -> ()

let alloc tx n =
  Validation.burn_fuel tx;
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
  Write_set.drop_block tx.wset ~from:scope.wset_mark
    ~journal_from:scope.journal_mark ~lo ~hi

let free tx addr =
  Validation.burn_fuel tx;
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
  Validation.burn_fuel tx;
  tx.platform.consume Costs.alloca;
  let addr = Tstack.alloca tx.stack n in
  emit tx.tid (Ev_alloca { addr; size = n });
  addr
