(** The catalogue of priced barrier paths: one row per transactional
    path the cost model ({!Captured_stm.Costs}) prices, with the
    transaction that exercises it.

    A row's measurement is one transaction (or, for a bare row, one
    loop outside any transaction) run with [n] operations, minus the
    same run with none: the row's prefix, begin and commit cancel.
    Three readers use the catalogue:
    - test_stm checks that each row's {!price} from the [Costs]
      constants, and a {!simulated} row's cycles per operation, are the
      {!cycles} it records;
    - test_native checks that 64 and 512 operations allocate the same
      minor words natively, and that the row's {!counter} moved once
      per operation;
    - bench's calibrate section times each row with Bechamel and prints
      its native ns beside the price and {!formula}. *)

open Captured_stm

type t = {
  name : string;  (** the path, as calibrate prints it *)
  config : string;  (** the row's config, a [Config.of_string] spelling *)
  cycles : float;
      (** the simulated cycles per operation the path is priced at, as
          recorded: a change to a [Costs] constant fails the rows it
          moves until they are re-recorded.  Fractional only where a path
          samples (the +fp site tier checks one bypassed access in
          {!Site_tier.sample_every}). *)
  price : float;  (** the same price computed from the [Costs] constants *)
  formula : string;  (** how {!price} is computed, in [Costs] terms *)
  counter : (string * (Stats.t -> int)) option;
      (** a counter that moves exactly once per operation, proving the
          path ran, where one exists *)
  simulated : bool;
      (** [false] for the rows whose operation charges the simulator
          nothing: the capture-log probes and the lock-spin step time
          library calls a barrier prices around them *)
  prepare : Engine.world -> Txn.thread -> int -> unit;
      (** [prepare w] lays out the row's data in [w]; [run th n] then
          runs the prefix and [n] operations, [n <= max_ops] *)
}

val max_ops : int
(** The most operations a row's run takes: 512. *)

val all : t list
(** Every row, in calibrate's print order. *)

val find : string -> t
(** The row of that name; raises [Not_found]. *)

val setup : t -> Engine.world * (Txn.thread -> int -> unit)
(** A fresh one-thread world under the row's config, with the row's data
    laid out in it, and the row's [run]. *)
