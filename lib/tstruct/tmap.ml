module Site = Captured_core.Site

type handle = int

(* Header: [0]=root, [1]=size.
   Node: [0]=key, [1]=val, [2]=prio, [3]=left, [4]=right. *)
let node_words = 5
let h_root = 0
let h_size = 1
let f_key = 0
let f_val = 1
let f_prio = 2
let f_left = 3
let f_right = 4

let site_root_r = Site.declare ~write:false "map.root_r"
let site_root_w = Site.declare ~write:true "map.root_w"
let _site_size_r = Site.declare ~write:false "map.size_r"
let _site_size_w = Site.declare ~write:true "map.size_w"
let site_key_r = Site.declare ~write:false "map.key_r"
let site_val_r = Site.declare ~write:false "map.val_r"
let site_val_w = Site.declare ~write:true "map.val_w"
let site_prio_r = Site.declare ~write:false "map.prio_r"
let site_left_r = Site.declare ~write:false "map.left_r"
let site_right_r = Site.declare ~write:false "map.right_r"
let site_left_w = Site.declare ~write:true "map.left_w"
let site_right_w = Site.declare ~write:true "map.right_w"
let site_init_key = Site.declare ~manual:false ~write:true "map.node_init.key"
let site_init_val = Site.declare ~manual:false ~write:true "map.node_init.val"
let site_init_prio = Site.declare ~manual:false ~write:true "map.node_init.prio"
let site_init_left = Site.declare ~manual:false ~write:true "map.node_init.left"
let site_init_right =
  Site.declare ~manual:false ~write:true "map.node_init.right"
let site_header_init_root =
  Site.declare ~manual:false ~write:true "map.header_init.root"
let site_header_init_size =
  Site.declare ~manual:false ~write:true "map.header_init.size"

(* Deterministic priority: structure identical across runs and configs. *)
let prio_of_key key = (key * 0x2545F4914F6CDD1D) land max_int

let create (acc : Access.t) =
  let h = acc.alloc 2 in
  acc.write ~site:site_header_init_root (h + h_root) 0;
  acc.write ~site:site_header_init_size (h + h_size) 0;
  h

(* Size is computed by traversal: maintaining a counter in the header
   would make every insert/delete invalidate every concurrent traversal
   (the counter shares a conflict-detection line with the root pointer) —
   contention STAMP's rbtree, which keeps no size, does not have. *)
let rec size_node (acc : Access.t) n =
  if n = 0 then 0
  else
    1
    + size_node acc (acc.read ~site:site_left_r (n + f_left))
    + size_node acc (acc.read ~site:site_right_r (n + f_right))

let size (acc : Access.t) h =
  size_node acc (acc.read ~site:site_root_r (h + h_root))

let key_of (acc : Access.t) n = acc.read ~site:site_key_r (n + f_key)
let left_of (acc : Access.t) n = acc.read ~site:site_left_r (n + f_left)
let right_of (acc : Access.t) n = acc.read ~site:site_right_r (n + f_right)
let prio_of (acc : Access.t) n = acc.read ~site:site_prio_r (n + f_prio)

let destroy (acc : Access.t) h =
  let rec go n =
    if n <> 0 then begin
      go (left_of acc n);
      go (right_of acc n);
      acc.free n
    end
  in
  go (acc.read ~site:site_root_r (h + h_root));
  acc.free h

let find (acc : Access.t) h key =
  let rec go n =
    if n = 0 then None
    else
      let k = key_of acc n in
      if key = k then Some (acc.read ~site:site_val_r (n + f_val))
      else if key < k then go (left_of acc n)
      else go (right_of acc n)
  in
  go (acc.read ~site:site_root_r (h + h_root))

let contains acc h key = Option.is_some (find acc h key)

(* [set_child acc parent_slot child]: parent_slot is the address of the
   link being rewritten (root field or a node's left/right field);
   [which] picks the site. *)
type slot = Root of int | Left of int | Right of int

let read_slot (acc : Access.t) = function
  | Root h -> acc.read ~site:site_root_r (h + h_root)
  | Left n -> left_of acc n
  | Right n -> right_of acc n

let write_slot (acc : Access.t) slot v =
  match slot with
  | Root h -> acc.write ~site:site_root_w (h + h_root) v
  | Left n -> acc.write ~site:site_left_w (n + f_left) v
  | Right n -> acc.write ~site:site_right_w (n + f_right) v


(* Insert, update and find-or-add share one walk: descend to the key or
   to the leaf position, link a fresh node there, then rotate it up while
   its priority beats its parent's.  Parent pointers are not stored, so
   the rotations run as the descent unwinds, touching the same O(log n)
   shared nodes an RB insert would.  Priorities derive from keys, so each
   rotation test compares [prio_of_key] of the key the descent read at
   that parent with the new key's, and reads no stored [prio].

   [walk] is the request and the fresh node's children while it rises:
   linked as a leaf, it takes each parent it rotates past as its right
   child (rotating right) or its left child (rotating left), so no
   rotation reads the fresh node back. *)
type mode = Insert | Update | Find_or_add

type walk = {
  key : int;
  prio : int;
  mode : mode;
  make : unit -> int;  (* Find_or_add only *)
  mutable value : int;  (* the value stored, or found by Find_or_add *)
  mutable left : int;
  mutable right : int;
}

(* [descend]'s results: [present] the key was there; [placed] a fresh
   node is linked and outranks no parent left on the path; any other
   result is the fresh node, still to be tested against its parent. *)
let present = -1
let placed = 0

let rec descend (acc : Access.t) w slot =
  let n = read_slot acc slot in
  if n = 0 then begin
    (match w.mode with
    | Find_or_add -> w.value <- w.make ()
    | Insert | Update -> ());
    let node = acc.alloc node_words in
    acc.write ~site:site_init_key (node + f_key) w.key;
    acc.write ~site:site_init_val (node + f_val) w.value;
    acc.write ~site:site_init_prio (node + f_prio) w.prio;
    acc.write ~site:site_init_left (node + f_left) 0;
    acc.write ~site:site_init_right (node + f_right) 0;
    write_slot acc slot node;
    node
  end
  else
    let k = key_of acc n in
    if w.key = k then begin
      (match w.mode with
      | Insert -> ()
      | Update -> acc.write ~site:site_val_w (n + f_val) w.value
      | Find_or_add -> w.value <- acc.read ~site:site_val_r (n + f_val));
      present
    end
    else if w.key < k then begin
      let child = descend acc w (Left n) in
      if child <= placed then child
      else if w.prio > prio_of_key k then begin
        (* Rotate right: the child takes [n] as its right child. *)
        write_slot acc (Left n) w.right;
        acc.write ~site:site_right_w (child + f_right) n;
        w.right <- n;
        write_slot acc slot child;
        child
      end
      else placed
    end
    else begin
      let child = descend acc w (Right n) in
      if child <= placed then child
      else if w.prio > prio_of_key k then begin
        write_slot acc (Right n) w.left;
        acc.write ~site:site_left_w (child + f_left) n;
        w.left <- n;
        write_slot acc slot child;
        child
      end
      else placed
    end

let no_make () = invalid_arg "Tmap: no value to make"

let request ~key ~value ~make mode =
  { key; prio = prio_of_key key; mode; make; value; left = 0; right = 0 }

let insert acc h ~key ~value =
  descend acc (request ~key ~value ~make:no_make Insert) (Root h) <> present

let update acc h ~key ~value =
  descend acc (request ~key ~value ~make:no_make Update) (Root h) <> present

let find_or_add acc h ~key ~make =
  let w = request ~key ~value:0 ~make Find_or_add in
  ignore (descend acc w (Root h) : int);
  w.value

(* Remove: find the node, rotate it down to a leaf (always promoting the
   higher-priority child), unlink, free. *)
let remove (acc : Access.t) h key =
  let rec rotate_down slot n =
    let l = left_of acc n and r = right_of acc n in
    if l = 0 && r = 0 then write_slot acc slot 0
    else if r = 0 || (l <> 0 && prio_of acc l > prio_of acc r) then begin
      (* Rotate right: l becomes the subtree root. *)
      write_slot acc (Left n) (right_of acc l);
      acc.write ~site:site_right_w (l + f_right) n;
      write_slot acc slot l;
      rotate_down (Right l) n
    end
    else begin
      write_slot acc (Right n) (left_of acc r);
      acc.write ~site:site_left_w (r + f_left) n;
      write_slot acc slot r;
      rotate_down (Left r) n
    end
  in
  let rec descend slot =
    let n = read_slot acc slot in
    if n = 0 then false
    else
      let k = key_of acc n in
      if key = k then begin
        rotate_down slot n;
        acc.free n;
        true
      end
      else if key < k then descend (Left n)
      else descend (Right n)
  in
  descend (Root h)

let find_le (acc : Access.t) h key =
  let rec go n best =
    if n = 0 then best
    else
      let k = key_of acc n in
      if k = key then Some (k, acc.read ~site:site_val_r (n + f_val))
      else if k < key then
        go (right_of acc n) (Some (k, acc.read ~site:site_val_r (n + f_val)))
      else go (left_of acc n) best
  in
  go (acc.read ~site:site_root_r (h + h_root)) None

let min_binding (acc : Access.t) h =
  let rec go n =
    if n = 0 then None
    else
      let l = left_of acc n in
      if l = 0 then Some (key_of acc n, acc.read ~site:site_val_r (n + f_val))
      else go l
  in
  go (acc.read ~site:site_root_r (h + h_root))

let fold (acc : Access.t) h ~init ~f =
  let rec go n acc_v =
    if n = 0 then acc_v
    else
      let acc_v = go (left_of acc n) acc_v in
      let acc_v = f acc_v (key_of acc n) (acc.read ~site:site_val_r (n + f_val)) in
      go (right_of acc n) acc_v
  in
  go (acc.read ~site:site_root_r (h + h_root)) init

let check (acc : Access.t) h =
  (* [go n ~lo ~hi ~above] checks the subtree at [n]: its keys must lie
     strictly between the bounds present, and its priorities must not
     exceed [above]. *)
  let rec go n ~lo ~hi ~above =
    if n = 0 then Ok ()
    else
      let k = key_of acc n and p = prio_of acc n in
      if Option.fold ~none:false ~some:(fun b -> k <= b) lo
         || Option.fold ~none:false ~some:(fun b -> k >= b) hi
      then Error (Printf.sprintf "key %d out of search order" k)
      else if p <> prio_of_key k then
        Error (Printf.sprintf "key %d stores priority %d" k p)
      else if p > above then
        Error (Printf.sprintf "key %d outranks its parent" k)
      else
        Result.bind (go (left_of acc n) ~lo ~hi:(Some k) ~above:p) (fun () ->
            go (right_of acc n) ~lo:(Some k) ~hi ~above:p)
  in
  go (acc.read ~site:site_root_r (h + h_root)) ~lo:None ~hi:None ~above:max_int
