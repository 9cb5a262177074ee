type t = {
  consume : int -> unit;
  yield : unit -> unit;
  relax : int -> unit;
}

(* Native backoff: short waits spin with [Domain.cpu_relax] (PAUSE-class
   hint — cheap, keeps the domain runnable); long waits sleep, because on
   an oversubscribed machine (more domains than cores, e.g. CI containers)
   a spinning waiter can occupy the very core its lock holder needs.  The
   default backoff's jitter-free cap, [64 lsl Costs.backoff_max_shift] =
   2048 cycles, is under the threshold: a retry sleeps only once its
   [63 * attempt] jitter pushes it past. *)
let native_relax cycles =
  if cycles <= 4096 then
    for _ = 1 to cycles do
      Domain.cpu_relax ()
    done
  else Unix.sleepf (1e-8 *. float_of_int cycles)

let native = { consume = ignore; yield = Domain.cpu_relax; relax = native_relax }

let simulated ctx =
  {
    consume = Sched.consume ctx;
    yield = (fun () -> Sched.yield ctx);
    (* The simulator charges backoff via [consume] (virtual time); a real
       delay here would only slow the host down. *)
    relax = ignore;
  }
