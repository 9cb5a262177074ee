type t = int

let scale_bits = 20
let one = 1 lsl scale_bits
let zero = 0

let of_int i = i lsl scale_bits
let to_int x = x asr scale_bits

let of_float f = int_of_float (Float.round (f *. float_of_int one))
let to_float x = float_of_int x /. float_of_int one

let add = ( + )
let sub = ( - )

(* Split multiplication keeps the intermediate within 63 bits for operands up
   to ~2^41, which covers every workload here. *)
let mul a b =
  let hi = a asr scale_bits and lo = a land (one - 1) in
  (hi * b) + ((lo * b) asr scale_bits)

let div a b =
  if b = 0 then raise Division_by_zero
  else
    let hi = a / b in
    let rem = a - (hi * b) in
    (hi lsl scale_bits) + ((rem lsl scale_bits) / b)

let abs x = Stdlib.abs x

let sqrt x =
  if x < 0 then invalid_arg "Fixed.sqrt: negative"
  else if x = 0 then 0
  else
    (* Newton on the integer value of sqrt(x) in Q.20: y = sqrt(x << 20). *)
    let target = x lsl scale_bits in
    (* Newton descends monotonically from any guess >= sqrt(target). *)
    let rec go y =
      let y' = (y + (target / y)) / 2 in
      if y' >= y then y else go y'
    in
    go target

let log x =
  if x <= 0 then invalid_arg "Fixed.log: non-positive"
  else of_float (Stdlib.log (to_float x))

let compare = Int.compare
let pp fmt x = Format.fprintf fmt "%.6f" (to_float x)
