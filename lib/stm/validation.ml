(* Validation: the read-log checks with value rescue, snapshot
   extension, validation fuel, the sandbox's bounds guard and the doom
   scan of a lock wait.  The barriers, commit and the runner's sandbox
   all call it.  Writes the read log's words ([rescue_entry]),
   [start_ts] and [fuel]. *)

open Descriptor

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)

(* A logged read holds while its orec still carries the logged word.  An
   orec the attempt read and then acquired carries [lock_word]; the
   acquisition re-logs the read as [lock_word] when the version it
   replaced is the one read ([Lock_wait.acquire_loop]), so such a read holds
   exactly when the write did not follow a concurrent commit. *)
let read_entry_valid th oi word = Orec.get th.orecs oi = word

(* An attempt that has acquired nothing owns nothing, which spares
   read-only prefixes the orec load. *)
let owns tx oi =
  tx.n_acq > 0 && Orec.get tx.orecs oi = tx.lock_word

let charge_validation th cost =
  th.platform.consume cost;
  th.stats.validation_cycles <- th.stats.validation_cycles + cost

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
   sandwich [Barrier.full_read_loop] runs).  Under the Global clock it must also
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
  (* Injected fault (checker self-test): adopt without looking. *)
  && ((Config.has_fault tx.config Fault.Blind_rescue && injected tx)
     ||
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
  (Config.has_fault tx.config Fault.Skip_validation && injected tx)
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
   capture-elided accesses and [Txn.tx_work] included, which no barrier slow
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
