type frame = Memory.addr

type t = {
  memory : Memory.t;
  base : Memory.addr;
  top : Memory.addr; (* one past the highest word *)
  mutable sp : Memory.addr;
}

exception Overflow

let create memory ~base ~words =
  if base <= 0 || words <= 0 then invalid_arg "Tstack.create";
  { memory; base; top = base + words; sp = base + words }

let alloca t n =
  if n <= 0 then invalid_arg "Tstack.alloca: non-positive size";
  if t.sp - n < t.base then raise Overflow;
  t.sp <- t.sp - n;
  t.sp

let sp t = t.sp
let save t = t.sp

let restore t f =
  if f < t.sp || f > t.top then invalid_arg "Tstack.restore: bad frame";
  t.sp <- f

(* Downward growth: words pushed since [from_sp] occupy [sp, from_sp). *)
let in_live_range t ~from_sp addr size =
  addr >= t.sp && addr + size <= from_sp

