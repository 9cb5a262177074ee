(* Lock waits: the spin on a locked orec, its budget and the abort
   that ends it, orec acquisition, and the backoff after an abort.
   Writes the acquisition log, the word of a read it re-logs, [blocker]
   and [blocker_word]. *)

open Descriptor

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
      || (spins = Costs.spin_limit
         && Validation.doomed th ~owner:(Orec.owner_of w) 0)
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
       [Validation.read_entry_valid]). *)
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
