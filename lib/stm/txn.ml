(* Transactions (txn.mli): the descriptor's types and tracer and the
   barriers, exported from the layers below, and the atomic runner,
   privatization and plain accesses. *)

include Descriptor
include Barrier

(* ------------------------------------------------------------------ *)
(* Annotation API (paper, Figure 7)                                    *)

let add_private_block th ~addr ~size =
  if size <= 0 then invalid_arg "Txn.add_private_block";
  ignore
    (Alloc_log.add th.private_log ~lo:addr ~hi:(addr + size) : Alloc_log.added)

let remove_private_block th ~addr ~size =
  ignore (Alloc_log.remove th.private_log ~lo:addr ~hi:(addr + size) : bool)

(* ------------------------------------------------------------------ *)
(* The atomic runner                                                   *)

let in_txn th = th.depth > 0

(* One top-level attempt and its retries: a conflict rolls back, backs
   off and tail-calls the next attempt (the handlers of a [match ... with
   exception] are tail calls), and a commit returns the body's result
   as it is, so the runner allocates nothing of its own. *)
let rec attempt tx f n =
  Commit.begin_top tx ~attempt:n;
  match f tx with
  | r -> (
      match Commit.commit_top tx with
      | () -> r
      | exception Retry_conflict -> retry tx f n)
  | exception Retry_conflict -> retry tx f n
  | exception User_abort ->
      Commit.abort_top tx ~user:true;
      raise User_abort
  | exception e ->
      (* Zombie sandbox: a transaction on an invalid snapshot can raise
         anything; re-validate to tell a real error from conflict
         fallout, and swallow the phantom. *)
      if Validation.validate tx ~upto:tx.start_ts then begin
        Commit.abort_top tx ~user:false;
        raise e
      end
      else begin
        tx.stats.sandbox_aborts <- tx.stats.sandbox_aborts + 1;
        retry tx f n
      end

and retry tx f n =
  Commit.abort_top tx ~user:false;
  Lock_wait.backoff tx n;
  attempt tx f (n + 1)

let atomic tx f =
  if in_txn tx then begin
    (* Nested transaction. *)
    Commit.push_scope tx;
    match f tx with
    | r ->
        Commit.commit_scope tx;
        r
    | exception Retry_conflict ->
        (* Conflicts abort the whole (flattened) transaction. *)
        raise Retry_conflict
    | exception e ->
        (* A user abort, or an error, rolls back this scope only. *)
        Commit.abort_scope tx;
        raise e
  end
  else attempt tx f 1

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
        Commit.ebr_sweep th r;
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
  Validation.burn_fuel tx;
  tx.platform.consume cycles

let thread_stats th = th.stats
let thread_id th = th.tid
let thread_stack th = th.stack
let thread_prng th = th.prng
