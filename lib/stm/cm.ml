(* Pluggable contention management for the atomic retry loop.

   The STM is a requester-aborts design: a conflicting transaction kills
   itself and retries, and the only livelock defence is how long it waits
   before doing so.  [Backoff], the default, is [Costs.backoff]: a
   64-cycle unit doubled per consecutive abort, capped at
   [Costs.backoff_max_shift] doublings (2048 cycles, about one
   transaction of the costliest benchmark app, so a waiter stops once a
   peer has had time to commit), plus one PRNG draw of jitter per abort.
   Natively that jitter-free cap sits under [Platform.native_relax]'s
   sleep threshold, so only a long abort run's jitter makes a retry sleep.

   [Karma] discounts the exponent by work invested: a transaction that
   has already logged a large read/undo set across its failed attempts
   retries sooner than a fresh one (priority ~ work done, after the Karma
   manager of Scherer & Scott).

   [Timestamp] is oldest-wins by global ticket order (Greedy-style): age
   — tickets issued since ours — divides a *linear* backoff, so old
   transactions wait little while young ones yield.  A starvation counter
   watches consecutive aborts; past the threshold the transaction is
   marked starving, retries almost immediately and spins longer on held
   locks instead of self-aborting, which bounds the worst-case
   consecutive-abort run (measured by the bench contention sweep). *)

type policy = Backoff | Karma | Timestamp

let all_policies = [ Backoff; Karma; Timestamp ]

let policy_name = function
  | Backoff -> "backoff"
  | Karma -> "karma"
  | Timestamp -> "timestamp"

let policy_of_name = function
  | "backoff" -> Some Backoff
  | "karma" -> Some Karma
  | "timestamp" -> Some Timestamp
  | _ -> None

type shared = { tickets : int Atomic.t }

let create_shared () = { tickets = Atomic.make 0 }

type t = {
  policy : policy;
  shared : shared;
  mutable ticket : int;
  mutable karma : int; (* accumulated work over this txn's failed attempts *)
  mutable consec_aborts : int;
  mutable starving : bool;
}

let create ~policy ~shared =
  { policy; shared; ticket = 0; karma = 0; consec_aborts = 0; starving = false }

let policy t = t.policy

(* Aborts before a transaction is declared starving (Timestamp only). *)
let starvation_threshold = 8

let note_begin t =
  match t.policy with
  | Timestamp -> t.ticket <- Atomic.fetch_and_add t.shared.tickets 1
  | Backoff | Karma -> ()

let on_complete t =
  t.karma <- 0;
  t.consec_aborts <- 0;
  t.starving <- false

let on_abort t (st : Stats.t) ~attempt ~work ~jitter =
  t.consec_aborts <- t.consec_aborts + 1;
  if t.consec_aborts > st.Stats.cm_max_consec_aborts then
    st.Stats.cm_max_consec_aborts <- t.consec_aborts;
  match t.policy with
  | Backoff -> Costs.backoff ~attempt ~jitter
  | Karma ->
      t.karma <- t.karma + work;
      let discount = t.karma / Costs.karma_per_discount in
      Costs.backoff ~attempt:(max 1 (attempt - discount)) ~jitter
  | Timestamp ->
      if t.consec_aborts >= starvation_threshold && not t.starving then begin
        t.starving <- true;
        st.Stats.cm_starvation_events <- st.Stats.cm_starvation_events + 1
      end;
      if t.starving then 1 + (jitter land 63)
      else
        let age = Atomic.get t.shared.tickets - t.ticket in
        (Costs.cm_linear_backoff * t.consec_aborts / (1 + min age 15))
        + (jitter land 63)
        + 1

let spin_patience t =
  match t.policy with
  | Timestamp when t.starving -> Costs.spin_limit * 8
  | Backoff | Karma | Timestamp -> Costs.spin_limit
