module Site = Captured_core.Site

type handle = int

(* Layout: [0]=nbits, [1..] = words of 62 bits each (safe in an OCaml
   int). *)
let bits_per_word = 62

let site_nbits_r = Site.declare ~write:false "bitmap.nbits_r"
let site_word_r = Site.declare ~write:false "bitmap.word_r"
let site_word_w = Site.declare ~write:true "bitmap.word_w"
let site_init_nbits = Site.declare ~manual:false ~write:true "bitmap.init.nbits"
let site_init_word = Site.declare ~manual:false ~write:true "bitmap.init.word"

let words_for n = (n + bits_per_word - 1) / bits_per_word

let create (acc : Access.t) ~nbits =
  if nbits <= 0 then invalid_arg "Tbitmap.create";
  let h = acc.alloc (1 + words_for nbits) in
  acc.write ~site:site_init_nbits h nbits;
  for k = 1 to words_for nbits do
    acc.write ~site:site_init_word (h + k) 0
  done;
  h

let nbits (acc : Access.t) h = acc.read ~site:site_nbits_r h

let check acc h i =
  if i < 0 || i >= nbits acc h then invalid_arg "Tbitmap: bit out of range"

let set (acc : Access.t) h i =
  check acc h i;
  let w = h + 1 + (i / bits_per_word) and b = i mod bits_per_word in
  let old = acc.read ~site:site_word_r w in
  if old land (1 lsl b) <> 0 then false
  else begin
    acc.write ~site:site_word_w w (old lor (1 lsl b));
    true
  end

let clear (acc : Access.t) h i =
  check acc h i;
  let w = h + 1 + (i / bits_per_word) and b = i mod bits_per_word in
  let old = acc.read ~site:site_word_r w in
  acc.write ~site:site_word_w w (old land lnot (1 lsl b))

let test (acc : Access.t) h i =
  check acc h i;
  let w = h + 1 + (i / bits_per_word) and b = i mod bits_per_word in
  acc.read ~site:site_word_r w land (1 lsl b) <> 0

let count (acc : Access.t) h =
  let n = nbits acc h in
  let total = ref 0 in
  for k = 0 to words_for n - 1 do
    let w = acc.read ~site:site_word_r (h + 1 + k) in
    let rec popcount x acc = if x = 0 then acc else popcount (x lsr 1) (acc + (x land 1)) in
    total := !total + popcount w 0
  done;
  !total

let find_clear (acc : Access.t) h ~start =
  let n = nbits acc h in
  let rec go i =
    if i >= n then None else if not (test acc h i) then Some i else go (i + 1)
  in
  go (max 0 start)
