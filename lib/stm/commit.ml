(* Begin, commit and abort, top-level and nested: the scope slots, the
   one commit sequence (lazy acquire, read-only fast path, per-clock
   validation, serialize, release, fsync), rollback, and the EBR exit.
   Writes [depth] and the scope slots, releases the acquisition log, and
   resets every log at begin. *)

open Descriptor

(* ------------------------------------------------------------------ *)
(* Epoch-based reclamation hooks                                      *)

(* One reclaim sweep: try to advance the global epoch, then release
   every limbo entry whose two grace periods have elapsed back to this
   thread's arena (same "freeing thread keeps it" placement as the
   immediate free it replaces). *)
let ebr_sweep th r =
  if Reclaim.try_advance (Reclaim.shared_of r) then
    th.stats.epoch_advances <- th.stats.epoch_advances + 1;
  ignore
    (Reclaim.drain r ~free:(fun ~addr ~size:_ -> Alloc.free th.arena addr)
      : int)

(* An attempt's quiescent exit (commit or abort: its reads are dead, so
   it must stop holding the global epoch back before the next begin
   re-announces), then one sweep if this thread's own limbo holds
   anything: an advance exists only to drain limbo, and [Txn.quiesce]
   advances by itself, so a thread that freed nothing pays only its
   announcements.  A sweep that leaves entries behind is a stall — some
   in-flight reader is still holding the epoch back. *)
let ebr_exit th r =
  th.platform.consume Costs.ebr_announce;
  Reclaim.announce_quiescent r;
  if Reclaim.pending r > 0 then begin
    th.platform.consume Costs.ebr_advance;
    ebr_sweep th r;
    if Reclaim.pending r > 0 then
      th.stats.reclaim_stalls <- th.stats.reclaim_stalls + 1
  end

(* ------------------------------------------------------------------ *)
(* Begin / commit / abort                                              *)

let push_scope tx =
  let d = tx.depth in
  if d = Array.length tx.scopes then
    tx.scopes <- Array.append tx.scopes [| new_scope tx.config |];
  let s = tx.scopes.(d) in
  (* Nested scopes answer capture questions relative to themselves
     (paper §2.2.1): empty logs. *)
  (match s.capture_log with Some l -> Alloc_log.clear l | None -> ());
  s.n_allocs <- 0;
  s.n_dfrees <- 0;
  (* A nested scope must not trust the entries its parent wrote: an
     address the outer scope logged still needs a journal entry inside
     the child, or partial abort cannot restore it (the paper's §2.2.1
     live-in observation, applied to the write set); the fresh serial
     makes every older stamp fall short ([Barrier.rewrite]). *)
  s.serial <- tx.scope_serial;
  tx.scope_serial <- tx.scope_serial + 1;
  s.start_sp <- Tstack.save tx.stack;
  s.journal_mark <- Write_set.journal_size tx.wset;
  s.wset_mark <- Write_set.size tx.wset;
  tx.depth <- d + 1;
  if d > 0 then emit tx.tid Ev_scope_begin

let begin_top tx ~attempt =
  (* Small random jitter decorrelates thread phases (memory and pipeline
     variance on a real machine). *)
  tx.platform.consume (Costs.txn_begin + Prng.int tx.prng 8);
  (* EBR: publish "running at the epoch I just observed" before any read
     can happen.  The freeing side stamps limbo entries with the global
     epoch at commit, so this announcement is exactly what holds the
     global back from advancing two steps while this attempt runs. *)
  tx.platform.consume Costs.ebr_announce;
  Reclaim.announce tx.reclaim;
  tx.n_reads <- 0;
  Int_map.next_attempt tx.read_index;
  tx.n_acq <- 0;
  tx.wrote_in_place <- false;
  tx.fuel <- Costs.fuel_budget;
  tx.blocker <- -1;
  (* Only the Global clock has a snapshot timestamp; skipping the clock
     read keeps Scan's begin clock-free. *)
  tx.start_ts <- (match tx.clock with Global -> Orec.clock tx.orecs | Scan -> 0);
  Write_set.clear tx.wset;
  tx.depth <- 0;
  push_scope tx;
  emit tx.tid (Ev_begin { attempt })

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
  (* Committed frees, newest first.  They park in limbo (header still
     allocated, no free-list link written) until two grace periods pass,
     so a lagging or zombie reader that still holds a pre-free pointer
     can never see the block recarved under it.  [Premature_reuse]
     skips the grace period for one free — the use-after-free the
     oracle must flag. *)
  let r = tx.reclaim in
  for k = scope.n_dfrees - 1 downto 0 do
    let addr = scope.dfree_addrs.(k) in
    if fault_fires tx Fault.Premature_reuse then Alloc.free tx.arena addr
    else begin
      tx.platform.consume Costs.limbo_push;
      Reclaim.retire r ~addr ~size:(Alloc.block_size tx.arena addr)
    end
  done;
  let st = tx.stats in
  st.limbo_blocks <- max st.limbo_blocks (Reclaim.pending r);
  st.limbo_words <- max st.limbo_words (Reclaim.pending_words r);
  ebr_exit tx r;
  tx.depth <- 0;
  tx.stats.commits <- tx.stats.commits + 1

(* Lazy versioning, commit phase 1: acquire every write-set orec, in
   first-insert order.  The write barrier deferred both the bounds guard
   and the acquisition; garbage addresses a zombie buffered surface
   here, before any store — [Validation.sandbox_bounds] keeps its
   validate-then-classify contract (program bug vs. phantom).
   Lock-wait patience bounds deadlock exactly as the eager barrier's
   acquisition does. *)
let lazy_acquire tx =
  let ws = tx.wset in
  for k = 0 to Write_set.size ws - 1 do
    let addr = Write_set.addr ws k in
    Validation.sandbox_bounds tx addr;
    let oi = Orec.index_of tx.orecs addr in
    if not (Validation.owns tx oi) then begin
      tx.platform.consume Costs.commit_acquire;
      ignore (Lock_wait.acquire_loop tx oi 0 : int)
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

(* Durable commit: append the redo-style record at the serialization
   point, encoded straight from the write set ([Wal.append_commit]): its
   addresses in first-write order, each with its new value — the
   buffered one under [+lazy], the current memory word under eager
   versioning (the in-place stores already happened) — so both engines
   log the same write set.
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
      let buffered = tx.config.Config.lazy_versioning in
      let scope = innermost tx in
      let allocs =
        if scope.n_allocs = 0 then [||]
        else
          Array.init scope.n_allocs (fun k ->
              let addr = scope.alloc_addrs.(k) in
              let size = Alloc.block_size tx.arena addr in
              (addr, size, Array.init size (fun i -> mem_get tx (addr + i))))
      in
      let frees = Array.sub scope.dfree_addrs 0 scope.n_dfrees in
      let writes = Write_set.size ws in
      if writes > 0 || Array.length allocs > 0 || Array.length frees > 0
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
            Wal.append_commit ~group_commit:false w ~tid:tx.tid ~writes:ws
              ~buffered ~memory:tx.memory ~allocs ~frees
          in
          Wal.crash_torn w ~cut:(1 + Prng.int tx.prng (max 1 (bytes - 1)));
          raise Wal.Crashed
        end;
        if
          wal_account tx
            (Wal.append_commit w ~tid:tx.tid ~writes:ws ~buffered
               ~memory:tx.memory ~allocs ~frees)
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
  (match tx.wal with
  | Some w when fault_fires tx Fault.Crash_post_publish ->
      Wal.sync w;
      wal_crash tx
  | Some _ | None -> ());
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
        Validation.charge_validation tx Costs.tvalidate_check;
        tx.stats.validations_skipped <- tx.stats.validations_skipped + 1
      end
      else begin
        tx.platform.consume (Costs.commit_per_read * tx.n_reads);
        if not (Validation.validate tx ~upto:wv) then raise Retry_conflict
      end;
      Orec.stamped ~ts:wv
  | Scan ->
      tx.platform.consume
        (Costs.commit_base
        + (Costs.commit_per_read * tx.n_reads)
        + (Costs.commit_per_orec * tx.n_acq));
      if not (Validation.validate tx ~upto:tx.start_ts) then
        raise Retry_conflict;
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
   read in [Barrier.unowned_read] rests on this, and so does the
   sandwich of [Barrier.full_read_loop]).  Under Scan that is the old
   version + 1, the word a commit would store; under Global a fresh
   clock value, since the old version + 1 could equal the stamp the next
   commit draws while the clock has not moved. *)
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
    tx.platform.consume
      (Costs.abort_per_undo * Write_set.restore tx.wset tx.memory ~from:0);
  release tx ~word:(abort_word tx);
  (* Free speculative allocations scope by scope, innermost first, then
     restore the stack to the outermost scope's entry point. *)
  for d = tx.depth - 1 downto 0 do
    free_scope_allocs tx tx.scopes.(d)
  done;
  Tstack.restore tx.stack tx.scopes.(0).start_sp;
  tx.depth <- 0;
  if user then tx.stats.user_aborts <- tx.stats.user_aborts + 1
  else tx.stats.aborts <- tx.stats.aborts + 1;
  ebr_exit tx tx.reclaim;
  emit tx.tid (Ev_abort { user })

(* Nested commit: fold the child scope into its parent. *)
let commit_scope tx =
  let d = tx.depth - 1 in
  if d < 1 then invalid_arg "Txn.commit_scope: no nested scope";
  let child = tx.scopes.(d) and parent = tx.scopes.(d - 1) in
  (* Oldest-first append keeps the parent's log in allocation order. *)
  for k = 0 to child.n_allocs - 1 do
    let addr = child.alloc_addrs.(k) and size = child.alloc_sizes.(k) in
    push_alloc parent addr size;
    match parent.capture_log with
    | Some log -> Elision.capture_log_add tx log ~lo:addr ~hi:(addr + size)
    | None -> ()
  done;
  for k = 0 to child.n_dfrees - 1 do
    push_dfree parent child.dfree_addrs.(k)
  done;
  tx.depth <- d;
  tx.stats.nested_commits <- tx.stats.nested_commits + 1;
  emit tx.tid Ev_scope_commit

(* Nested (partial) abort: roll the child scope back, keep the parent
   running.  Acquired orecs are kept (safe, merely pessimistic). *)
let abort_scope tx =
  let d = tx.depth - 1 in
  if d < 1 then invalid_arg "Txn.abort_scope: no nested scope";
  let child = tx.scopes.(d) in
  tx.platform.consume Costs.abort_base;
  tx.platform.consume
    (Costs.abort_per_undo
    * Write_set.abort_scope tx.wset tx.memory
        ~in_place:(not tx.config.Config.lazy_versioning)
        ~from:child.wset_mark ~journal_from:child.journal_mark);
  free_scope_allocs tx child;
  Tstack.restore tx.stack child.start_sp;
  tx.depth <- d;
  tx.stats.nested_aborts <- tx.stats.nested_aborts + 1;
  emit tx.tid Ev_scope_abort
