(** Execution-platform abstraction used by the STM.

    The same STM code runs either on real domains (native wall-clock
    experiments) or on simulator fibers (virtual-time experiments); it sees
    the platform only through this record. *)

type t = {
  consume : int -> unit;
      (** Charge virtual cycles (no-op on the native platform). *)
  yield : unit -> unit;  (** Back off while spinning on a lock. *)
  relax : int -> unit;
      (** Really wait out a backoff of roughly that many cycles.  No-op on
          the simulator (backoff is charged as virtual time via [consume]);
          on the native platform short waits spin with [Domain.cpu_relax]
          and long waits sleep so oversubscribed domains release the core
          their lock holder may need. *)
}

(** The platform of a real domain: [consume] is free, [yield] is
    [Domain.cpu_relax], [relax] spins/sleeps. *)
val native : t

(** [simulated ctx] adapts a simulator fiber context. *)
val simulated : Sched.ctx -> t
