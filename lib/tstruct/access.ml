module Txn = Captured_stm.Txn
module Memory = Captured_tmem.Memory
module Alloc = Captured_tmem.Alloc

type t = {
  read : site:Captured_core.Site.id -> int -> int;
  read_for_write : site:Captured_core.Site.id -> int -> int;
  write : site:Captured_core.Site.id -> int -> int -> unit;
  alloc : int -> int;
  free : int -> unit;
}

let of_tx tx =
  {
    read = (fun ~site a -> Txn.read_at ~site tx a);
    read_for_write = (fun ~site a -> Txn.read_for_write_at ~site tx a);
    write = (fun ~site a v -> Txn.write_at ~site tx a v);
    alloc = (fun n -> Txn.alloc tx n);
    free = (fun a -> Txn.free tx a);
  }

let raw th =
  {
    read = (fun ~site:_ a -> Txn.raw_read th a);
    read_for_write = (fun ~site:_ a -> Txn.raw_read th a);
    write = (fun ~site:_ a v -> Txn.raw_write th a v);
    alloc = (fun n -> Txn.raw_alloc th n);
    free = (fun a -> Txn.raw_free th a);
  }

let of_arena arena =
  let mem = Alloc.mem arena in
  {
    read = (fun ~site:_ a -> Memory.get mem a);
    read_for_write = (fun ~site:_ a -> Memory.get mem a);
    write = (fun ~site:_ a v -> Memory.set mem a v);
    alloc = (fun n -> Alloc.alloc arena n);
    free = (fun a -> Alloc.free arena a);
  }
