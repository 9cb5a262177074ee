module Site = Captured_core.Site

type handle = int

let h_pop = 0
let h_push = 1
let h_cap = 2
let h_data = 3
let header_words = 4

let site_pop_r = Site.declare ~write:false "queue.pop_r"
let site_pop_w = Site.declare ~write:true "queue.pop_w"
let site_push_r = Site.declare ~write:false "queue.push_r"
let site_push_w = Site.declare ~write:true "queue.push_w"
let site_cap_r = Site.declare ~write:false "queue.cap_r"
let site_cap_w = Site.declare ~write:true "queue.cap_w"
let site_data_r = Site.declare ~write:false "queue.data_r"
let site_data_w = Site.declare ~write:true "queue.data_w"
let site_slot_r = Site.declare ~write:false "queue.slot_r"
let site_slot_w = Site.declare ~write:true "queue.slot_w"
let site_init_pop = Site.declare ~manual:false ~write:true "queue.init.pop"
let site_init_push = Site.declare ~manual:false ~write:true "queue.init.push"
let site_init_cap = Site.declare ~manual:false ~write:true "queue.init.cap"
let site_init_data = Site.declare ~manual:false ~write:true "queue.init.data"
let site_grow_slot_w =
  Site.declare ~manual:false ~write:true "queue.grow.slot_w"

let create (acc : Access.t) ?(capacity = 8) () =
  let cap = max 2 capacity in
  let h = acc.alloc header_words in
  let data = acc.alloc cap in
  acc.write ~site:site_init_pop (h + h_pop) (cap - 1);
  acc.write ~site:site_init_push (h + h_push) 0;
  acc.write ~site:site_init_cap (h + h_cap) cap;
  acc.write ~site:site_init_data (h + h_data) data;
  h

(* STAMP convention: pop points one before the first element. *)
let is_empty (acc : Access.t) h =
  let pop = acc.read ~site:site_pop_r (h + h_pop) in
  let push = acc.read ~site:site_push_r (h + h_push) in
  let cap = acc.read ~site:site_cap_r (h + h_cap) in
  (pop + 1) mod cap = push

let length (acc : Access.t) h =
  let pop = acc.read ~site:site_pop_r (h + h_pop) in
  let push = acc.read ~site:site_push_r (h + h_push) in
  let cap = acc.read ~site:site_cap_r (h + h_cap) in
  (push - ((pop + 1) mod cap) + cap) mod cap

let push (acc : Access.t) h v =
  let pop = acc.read ~site:site_pop_r (h + h_pop) in
  let push_i = acc.read ~site:site_push_r (h + h_push) in
  let cap = acc.read ~site:site_cap_r (h + h_cap) in
  if push_i = pop then begin
    (* Full: double.  The fresh buffer is captured memory; copying into it
       needs no write barriers, only the reads of the old slots do. *)
    let new_cap = 2 * cap in
    let data = acc.read ~site:site_data_r (h + h_data) in
    let new_data = acc.alloc new_cap in
    let n = (push_i - ((pop + 1) mod cap) + cap) mod cap in
    for k = 0 to n - 1 do
      let src = (pop + 1 + k) mod cap in
      acc.write ~site:site_grow_slot_w (new_data + k)
        (acc.read ~site:site_slot_r (data + src))
    done;
    acc.free data;
    acc.write ~site:site_data_w (h + h_data) new_data;
    acc.write ~site:site_pop_w (h + h_pop) (new_cap - 1);
    acc.write ~site:site_push_w (h + h_push) n;
    acc.write ~site:site_cap_w (h + h_cap) new_cap;
    let data = new_data in
    acc.write ~site:site_slot_w (data + n) v;
    acc.write ~site:site_push_w (h + h_push) (n + 1)
  end
  else begin
    let data = acc.read ~site:site_data_r (h + h_data) in
    acc.write ~site:site_slot_w (data + push_i) v;
    acc.write ~site:site_push_w (h + h_push) ((push_i + 1) mod cap)
  end

(* Every path writes [pop] (an empty queue's unchanged), so it is read
   through the read-for-write barrier, and read last so that its orec is
   not held across the other header reads. *)
let pop (acc : Access.t) h =
  let push_i = acc.read ~site:site_push_r (h + h_push) in
  let cap = acc.read ~site:site_cap_r (h + h_cap) in
  let data = acc.read ~site:site_data_r (h + h_data) in
  let pop_i = acc.read_for_write ~site:site_pop_r (h + h_pop) in
  let first = (pop_i + 1) mod cap in
  if first = push_i then begin
    acc.write ~site:site_pop_w (h + h_pop) pop_i;
    None
  end
  else begin
    let v = acc.read ~site:site_slot_r (data + first) in
    acc.write ~site:site_pop_w (h + h_pop) first;
    Some v
  end
