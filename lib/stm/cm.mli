(** Contention management: what a transaction does between a conflict
    abort and its retry.

    The policy lives in {!Config.t}; each {!Txn.thread} owns one manager
    instance, and instances in one {!Engine} world share a global ticket
    source (for [Timestamp]'s age order). *)

type policy =
  | Backoff
      (** Default: {!Costs.backoff}, exponential in the attempt and capped
          at [64 lsl Costs.backoff_max_shift] jitter-free cycles, about one
          transaction of the costliest benchmark app. *)
  | Karma  (** Backoff exponent discounted by work already invested. *)
  | Timestamp
      (** Oldest-wins by ticket age with a starvation counter: a
          transaction past the consecutive-abort threshold retries
          near-immediately and spins longer on held locks, bounding
          worst-case consecutive aborts. *)

val all_policies : policy list
val policy_name : policy -> string
val policy_of_name : string -> policy option

type shared
(** World-global contention-manager state (the [Timestamp] ticket
    source). *)

val create_shared : unit -> shared

type t
(** Per-thread manager state. *)

val create : policy:policy -> shared:shared -> t
val policy : t -> policy

val note_begin : t -> unit
(** Call at the first attempt of each transaction (takes a ticket under
    [Timestamp]). *)

val on_complete : t -> unit
(** Call when a transaction leaves the retry loop (commit or user abort):
    resets karma, the consecutive-abort run and starving status. *)

val on_abort : t -> Stats.t -> attempt:int -> work:int -> jitter:int -> int
(** [on_abort t stats ~attempt ~work ~jitter] records one conflict abort
    and returns the backoff cycles to burn before retrying.  [work] is
    the aborted attempt's logged-entry count (reads + undo + orecs);
    [jitter] an externally drawn value in [0, 63] (drawn by the caller so
    [Backoff] consumes the PRNG stream exactly like the pre-CM retry
    loop).  Updates [cm_max_consec_aborts] / [cm_starvation_events] in
    [stats].  Always ≥ 1. *)

val spin_patience : t -> int
(** Effective lock-wait spin limit: {!Costs.spin_limit} except for
    starving [Timestamp] transactions, which get 8×. *)
