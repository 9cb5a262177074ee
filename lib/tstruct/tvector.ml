module Site = Captured_core.Site

type handle = int

let h_size = 0
let h_cap = 1
let h_data = 2
let header_words = 3

let site_size_r = Site.declare ~write:false "vector.size_r"
let site_size_w = Site.declare ~write:true "vector.size_w"
let site_cap_r = Site.declare ~write:false "vector.cap_r"
let site_cap_w = Site.declare ~write:true "vector.cap_w"
let site_data_r = Site.declare ~write:false "vector.data_r"
let site_data_w = Site.declare ~write:true "vector.data_w"
let site_slot_r = Site.declare ~write:false "vector.slot_r"
let site_slot_w = Site.declare ~write:true "vector.slot_w"
let site_init_size = Site.declare ~manual:false ~write:true "vector.init.size"
let site_init_cap = Site.declare ~manual:false ~write:true "vector.init.cap"
let site_init_data = Site.declare ~manual:false ~write:true "vector.init.data"
let site_grow_slot_w =
  Site.declare ~manual:false ~write:true "vector.grow.slot_w"

let create (acc : Access.t) ?(capacity = 8) () =
  let cap = max 1 capacity in
  let h = acc.alloc header_words in
  let data = acc.alloc cap in
  acc.write ~site:site_init_size (h + h_size) 0;
  acc.write ~site:site_init_cap (h + h_cap) cap;
  acc.write ~site:site_init_data (h + h_data) data;
  h

let destroy (acc : Access.t) h =
  acc.free (acc.read ~site:site_data_r (h + h_data));
  acc.free h

let size (acc : Access.t) h = acc.read ~site:site_size_r (h + h_size)

let push_back (acc : Access.t) h v =
  let n = acc.read_for_write ~site:site_size_r (h + h_size) in
  let cap = acc.read ~site:site_cap_r (h + h_cap) in
  let data =
    if n = cap then begin
      let data = acc.read ~site:site_data_r (h + h_data) in
      let new_data = acc.alloc (2 * cap) in
      for k = 0 to n - 1 do
        acc.write ~site:site_grow_slot_w (new_data + k)
          (acc.read ~site:site_slot_r (data + k))
      done;
      acc.free data;
      acc.write ~site:site_data_w (h + h_data) new_data;
      acc.write ~site:site_cap_w (h + h_cap) (2 * cap);
      new_data
    end
    else acc.read ~site:site_data_r (h + h_data)
  in
  acc.write ~site:site_slot_w (data + n) v;
  acc.write ~site:site_size_w (h + h_size) (n + 1)

let at (acc : Access.t) h k =
  if k < 0 || k >= size acc h then invalid_arg "Tvector.at";
  acc.read ~site:site_slot_r (acc.read ~site:site_data_r (h + h_data) + k)

let set (acc : Access.t) h k v =
  if k < 0 || k >= size acc h then invalid_arg "Tvector.set";
  acc.write ~site:site_slot_w (acc.read ~site:site_data_r (h + h_data) + k) v

let clear (acc : Access.t) h = acc.write ~site:site_size_w (h + h_size) 0
