module Site = Captured_core.Site

type handle = int
type cmp = Access.t -> int -> int -> int

let h_size = 0
let h_cap = 1
let h_data = 2
let header_words = 3

let site_size_r = Site.declare ~write:false "heap.size_r"
let site_size_w = Site.declare ~write:true "heap.size_w"
let site_cap_r = Site.declare ~write:false "heap.cap_r"
let site_cap_w = Site.declare ~write:true "heap.cap_w"
let site_data_r = Site.declare ~write:false "heap.data_r"
let site_data_w = Site.declare ~write:true "heap.data_w"
let site_slot_r = Site.declare ~write:false "heap.slot_r"
let site_slot_w = Site.declare ~write:true "heap.slot_w"
let site_init_size = Site.declare ~manual:false ~write:true "heap.init.size"
let site_init_cap = Site.declare ~manual:false ~write:true "heap.init.cap"
let site_init_data = Site.declare ~manual:false ~write:true "heap.init.data"
let site_grow_slot_w = Site.declare ~manual:false ~write:true "heap.grow.slot_w"

let create (acc : Access.t) ?(capacity = 16) () =
  let cap = max 2 capacity in
  let h = acc.alloc header_words in
  let data = acc.alloc cap in
  acc.write ~site:site_init_size (h + h_size) 0;
  acc.write ~site:site_init_cap (h + h_cap) cap;
  acc.write ~site:site_init_data (h + h_data) data;
  h

let size (acc : Access.t) h = acc.read ~site:site_size_r (h + h_size)

let slot (acc : Access.t) data k = acc.read ~site:site_slot_r (data + k)
let set_slot (acc : Access.t) data k v = acc.write ~site:site_slot_w (data + k) v

let grow (acc : Access.t) h =
  let cap = acc.read ~site:site_cap_r (h + h_cap) in
  let data = acc.read ~site:site_data_r (h + h_data) in
  let n = size acc h in
  let new_cap = 2 * cap in
  let new_data = acc.alloc new_cap in
  for k = 0 to n - 1 do
    acc.write ~site:site_grow_slot_w (new_data + k) (slot acc data k)
  done;
  acc.free data;
  acc.write ~site:site_data_w (h + h_data) new_data;
  acc.write ~site:site_cap_w (h + h_cap) new_cap

(* [insert] and [pop] write [size] on every path (an empty heap's pop
   writes it back unchanged), so they read it through the read-for-write
   barrier. *)
let size_for_write (acc : Access.t) h =
  acc.read_for_write ~site:site_size_r (h + h_size)

let insert (acc : Access.t) (cmp : cmp) h v =
  let n = size_for_write acc h in
  if n = acc.read ~site:site_cap_r (h + h_cap) then grow acc h;
  let data = acc.read ~site:site_data_r (h + h_data) in
  set_slot acc data n v;
  (* Sift up. *)
  let rec up k =
    if k > 0 then begin
      let parent = (k - 1) / 2 in
      let pv = slot acc data parent and kv = slot acc data k in
      if cmp acc kv pv > 0 then begin
        set_slot acc data parent kv;
        set_slot acc data k pv;
        up parent
      end
    end
  in
  up n;
  acc.write ~site:site_size_w (h + h_size) (n + 1)

let pop (acc : Access.t) (cmp : cmp) h =
  let n = size_for_write acc h in
  if n = 0 then begin
    acc.write ~site:site_size_w (h + h_size) n;
    None
  end
  else begin
    let data = acc.read ~site:site_data_r (h + h_data) in
    let top = slot acc data 0 in
    let last = slot acc data (n - 1) in
    acc.write ~site:site_size_w (h + h_size) (n - 1);
    let n = n - 1 in
    if n > 0 then begin
      set_slot acc data 0 last;
      let rec down k =
        let l = (2 * k) + 1 and r = (2 * k) + 2 in
        let best = ref k in
        if l < n && cmp acc (slot acc data l) (slot acc data !best) > 0 then
          best := l;
        if r < n && cmp acc (slot acc data r) (slot acc data !best) > 0 then
          best := r;
        if !best <> k then begin
          let a = slot acc data k and b = slot acc data !best in
          set_slot acc data k b;
          set_slot acc data !best a;
          down !best
        end
      in
      down 0
    end;
    Some top
  end
