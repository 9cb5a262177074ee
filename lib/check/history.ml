module Txn = Captured_stm.Txn

type entry = { seq : int; tid : int; ev : Txn.event }

type t = { mutable entries : entry array; mutable len : int }

let dummy = { seq = 0; tid = 0; ev = Txn.Ev_commit }

let create () = { entries = Array.make 1024 dummy; len = 0 }

let record t ~tid ev =
  if t.len >= Array.length t.entries then begin
    let bigger = Array.make (2 * Array.length t.entries) dummy in
    Array.blit t.entries 0 bigger 0 t.len;
    t.entries <- bigger
  end;
  t.entries.(t.len) <- { seq = t.len; tid; ev };
  t.len <- t.len + 1

let length t = t.len

let iter t f =
  for i = 0 to t.len - 1 do
    f t.entries.(i)
  done

let attach t = Txn.set_tracer (Some (fun tid ev -> record t ~tid ev))
let detach () = Txn.set_tracer None
