module Site = Captured_core.Site

type handle = int

let header_words = 2
let node_words = 3
let iter_words = 1

(* Node field offsets. *)
let f_key = 0
let f_val = 1
let f_next = 2

(* Header field offsets. *)
let h_first = 0
let h_size = 1

(* Access sites.  [manual:true] marks accesses STAMP's hand
   instrumentation also barriers (shared list internals); node
   initialisation after allocation and iterator-cursor accesses are plain
   in STAMP, i.e. pure compiler over-instrumentation. *)
let s = Printf.sprintf

let site_traverse_key =
  Site.declare ~init_only:true ~write:false (s "list.traverse.key")
let site_traverse_next = Site.declare ~write:false (s "list.traverse.next")
let site_find_val =
  Site.declare ~init_only:true ~write:false (s "list.find.val")
let site_node_init_key =
  Site.declare ~manual:false ~write:true (s "list.node_init.key")
let site_node_init_val =
  Site.declare ~manual:false ~write:true (s "list.node_init.val")
let site_node_init_next =
  Site.declare ~manual:false ~write:true (s "list.node_init.next")
let site_link_next = Site.declare ~write:true (s "list.link.next")
let site_header_first_r = Site.declare ~write:false (s "list.header.first_r")
let site_header_first_w = Site.declare ~write:true (s "list.header.first_w")
let site_size_r = Site.declare ~write:false (s "list.size_r")
let site_size_w = Site.declare ~write:true (s "list.size_w")
let site_header_init_first =
  Site.declare ~manual:false ~write:true (s "list.header_init.first")
let site_header_init_size =
  Site.declare ~manual:false ~write:true (s "list.header_init.size")
let site_unlink_next = Site.declare ~write:true (s "list.unlink.next")
let site_remove_next_r = Site.declare ~write:false (s "list.remove.next_r")
let site_iter_write = Site.declare ~manual:false ~write:true (s "list.iter.write")
let site_iter_read = Site.declare ~manual:false ~write:false (s "list.iter.read")

let create (acc : Access.t) =
  let h = acc.alloc header_words in
  acc.write ~site:site_header_init_first (h + h_first) 0;
  acc.write ~site:site_header_init_size (h + h_size) 0;
  h

let size (acc : Access.t) h = acc.read ~site:site_size_r (h + h_size)

(* Walk to the first node with key >= [key].  Returns (prev, curr,
   found): [prev] is the last node with a smaller key (0 means "insert at
   head"), [curr] the node the walk stopped on (0 at the end), and
   [found] whether [curr] holds [key] — the key read that stopped the
   walk, so no caller reads it again. *)
let locate (acc : Access.t) h key =
  let rec go prev curr =
    if curr = 0 then (prev, 0, false)
    else
      let k = acc.read ~site:site_traverse_key (curr + f_key) in
      if k < key then
        go curr (acc.read ~site:site_traverse_next (curr + f_next))
      else (prev, curr, k = key)
  in
  go 0 (acc.read ~site:site_header_first_r (h + h_first))

let insert (acc : Access.t) h ~key ~value =
  let prev, curr, found = locate acc h key in
  if found then false
  else begin
    let node = acc.alloc node_words in
    acc.write ~site:site_node_init_key (node + f_key) key;
    acc.write ~site:site_node_init_val (node + f_val) value;
    acc.write ~site:site_node_init_next (node + f_next) curr;
    if prev = 0 then acc.write ~site:site_header_first_w (h + h_first) node
    else acc.write ~site:site_link_next (prev + f_next) node;
    acc.write ~site:site_size_w (h + h_size) (size acc h + 1);
    true
  end

let find (acc : Access.t) h key =
  let _, curr, found = locate acc h key in
  if found then Some (acc.read ~site:site_find_val (curr + f_val)) else None

let contains acc h key = Option.is_some (find acc h key)

let fold (acc : Access.t) h ~init ~f =
  let rec go node acc_v =
    if node = 0 then acc_v
    else
      let key = acc.read ~site:site_traverse_key (node + f_key) in
      let value = acc.read ~site:site_find_val (node + f_val) in
      go (acc.read ~site:site_traverse_next (node + f_next)) (f acc_v key value)
  in
  go (acc.read ~site:site_header_first_r (h + h_first)) init

let remove (acc : Access.t) h key =
  let prev, curr, found = locate acc h key in
  if not found then false
  else begin
    let next = acc.read ~site:site_remove_next_r (curr + f_next) in
    if prev = 0 then acc.write ~site:site_header_first_w (h + h_first) next
    else acc.write ~site:site_unlink_next (prev + f_next) next;
    acc.free curr;
    acc.write ~site:site_size_w (h + h_size) (size acc h - 1);
    true
  end

let destroy (acc : Access.t) h =
  let rec go node =
    if node <> 0 then begin
      let next = acc.read ~site:site_traverse_next (node + f_next) in
      acc.free node;
      go next
    end
  in
  go (acc.read ~site:site_header_first_r (h + h_first));
  acc.free h

let iter_reset (acc : Access.t) ~iter h =
  acc.write ~site:site_iter_write iter
    (acc.read ~site:site_header_first_r (h + h_first))

let iter_has_next (acc : Access.t) ~iter =
  acc.read ~site:site_iter_read iter <> 0

let iter_next (acc : Access.t) ~iter =
  let node = acc.read ~site:site_iter_read iter in
  if node = 0 then invalid_arg "Tlist.iter_next: exhausted";
  let key = acc.read ~site:site_traverse_key (node + f_key) in
  let value = acc.read ~site:site_find_val (node + f_val) in
  acc.write ~site:site_iter_write iter
    (acc.read ~site:site_traverse_next (node + f_next));
  (key, value)
