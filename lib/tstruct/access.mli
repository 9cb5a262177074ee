(** Memory accessor: the data structures run either inside a transaction
    (every access a potential barrier, with its site label) or in plain
    init code (raw accesses), through the same functions. *)

type t = {
  read : site:Captured_core.Site.id -> int -> int;
  read_for_write : site:Captured_core.Site.id -> int -> int;
      (** The read of a read-modify-write: a write to the same address
          follows on every path that does not abort.  Inside a
          transaction it is {!Captured_stm.Txn.read_for_write_at}, which
          acquires the orec at the read on both engines, so a header word
          read through it stays locked until commit; outside one it is
          [read]. *)
  write : site:Captured_core.Site.id -> int -> int -> unit;
  alloc : int -> int;
  free : int -> unit;
}

val of_tx : Captured_stm.Txn.tx -> t
val raw : Captured_stm.Txn.thread -> t

val of_arena : Captured_tmem.Alloc.t -> t
(** Init-time accessor over an arena (e.g. the global arena), no thread
    involved. *)
