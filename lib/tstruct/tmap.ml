module Site = Captured_core.Site

type handle = int

(* Header: [0]=root, [1]=size.
   Node: [0]=key, [1]=val, [2]=left, [3]=right.  A node's priority is a
   function of its key ([prio_of_key]), so no node stores it. *)
let node_words = 4
let h_root = 0
let h_size = 1
let f_key = 0
let f_val = 1
let f_left = 2
let f_right = 3

let site_root_r = Site.declare ~write:false "map.root_r"
let site_root_w = Site.declare ~write:true "map.root_w"
let _site_size_r = Site.declare ~write:false "map.size_r"
let _site_size_w = Site.declare ~write:true "map.size_w"
let site_key_r = Site.declare ~init_only:true ~write:false "map.key_r"
let site_val_r = Site.declare ~write:false "map.val_r"
let site_val_w = Site.declare ~write:true "map.val_w"
let site_left_r = Site.declare ~write:false "map.left_r"
let site_right_r = Site.declare ~write:false "map.right_r"
let site_left_w = Site.declare ~write:true "map.left_w"
let site_right_w = Site.declare ~write:true "map.right_w"
let site_init_key = Site.declare ~manual:false ~write:true "map.node_init.key"
let site_init_val = Site.declare ~manual:false ~write:true "map.node_init.val"
let site_init_left = Site.declare ~manual:false ~write:true "map.node_init.left"
let site_init_right =
  Site.declare ~manual:false ~write:true "map.node_init.right"
let site_header_init_root =
  Site.declare ~manual:false ~write:true "map.header_init.root"
let site_header_init_size =
  Site.declare ~manual:false ~write:true "map.header_init.size"

(* Deterministic priority, so the shape depends on the key set alone, in
   every run and config.  A key ranks first by its count of trailing
   zero bits (0 in class 0), then by a multiplicative hash in the low
   [hash_bits] bits.  In a range of consecutive keys the key with the
   most trailing zeros is unique and splits the range in halves, so a
   dense or strided range builds the perfectly balanced tree; keys of
   one class rank by the hash, as in a plain hashed treap.  The hash is
   a bijection on the low bits, so two keys tie only if they differ by a
   multiple of 2^56 within one class. *)
let hash_bits = 56
let hash_mask = (1 lsl hash_bits) - 1

let prio_of_key key =
  let rec zeros k n = if k land 1 = 1 then n else zeros (k lsr 1) (n + 1) in
  let cls = if key = 0 then 0 else zeros key 0 in
  (cls lsl hash_bits) lor ((key * 0x2545F4914F6CDD1D) land hash_mask)

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

(* A link is the word that points at a subtree, named by an int so a
   descent allocates nothing per step: [root_link] the header's root
   field, [n] node [n]'s left field, [-n] its right field (node
   addresses are positive). *)
let root_link = 0

let read_link (acc : Access.t) h link =
  if link = root_link then acc.read ~site:site_root_r (h + h_root)
  else if link > 0 then left_of acc link
  else right_of acc (-link)

let write_link (acc : Access.t) h link v =
  if link = root_link then acc.write ~site:site_root_w (h + h_root) v
  else if link > 0 then acc.write ~site:site_left_w (link + f_left) v
  else acc.write ~site:site_right_w (f_right - link) v

(* Insert, update and find-or-add share one walk: descend to the key or
   to the leaf position, link a fresh node there, then rotate it up while
   its priority beats its parent's.  Parent pointers are not stored, so
   the rotations run as the descent unwinds, touching the same O(log n)
   shared nodes an RB insert would.  Each rotation test compares
   [prio_of_key] of the key the descent read at that parent with the new
   key's.

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

let rec descend (acc : Access.t) h w link =
  let n = read_link acc h link in
  if n = 0 then begin
    (match w.mode with
    | Find_or_add -> w.value <- w.make ()
    | Insert | Update -> ());
    let node = acc.alloc node_words in
    acc.write ~site:site_init_key (node + f_key) w.key;
    acc.write ~site:site_init_val (node + f_val) w.value;
    acc.write ~site:site_init_left (node + f_left) 0;
    acc.write ~site:site_init_right (node + f_right) 0;
    write_link acc h link node;
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
      let child = descend acc h w n in
      if child <= placed then child
      else if w.prio > prio_of_key k then begin
        (* Rotate right: the child takes [n] as its right child. *)
        write_link acc h n w.right;
        acc.write ~site:site_right_w (child + f_right) n;
        w.right <- n;
        write_link acc h link child;
        child
      end
      else placed
    end
    else begin
      let child = descend acc h w (-n) in
      if child <= placed then child
      else if w.prio > prio_of_key k then begin
        write_link acc h (-n) w.left;
        acc.write ~site:site_left_w (child + f_left) n;
        w.left <- n;
        write_link acc h link child;
        child
      end
      else placed
    end

let no_make () = invalid_arg "Tmap: no value to make"

let request ~key ~value ~make mode =
  { key; prio = prio_of_key key; mode; make; value; left = 0; right = 0 }

let insert acc h ~key ~value =
  descend acc h (request ~key ~value ~make:no_make Insert) root_link <> present

let update acc h ~key ~value =
  descend acc h (request ~key ~value ~make:no_make Update) root_link <> present

let find_or_add acc h ~key ~make =
  let w = request ~key ~value:0 ~make Find_or_add in
  ignore (descend acc h w root_link : int);
  w.value

(* Removal merges the removed node's two subtrees into the link that
   pointed at it: walking down the left subtree's right spine and the
   right subtree's left spine, the higher-priority node of the pair goes
   into the link in hand, and the link to fill becomes its inner child
   link — the treap a rotate-down would leave, with no rotation through
   the removed node.  The node not placed stays in hand with its
   priority, a link is written only when its subtree root changes, and
   each node's key and inner link are read once.  [cur] is what [link]
   holds now; [l] and [r] are the roots still to merge, [pl] and [pr]
   their priorities. *)
let rec zip acc h link cur l pl r pr =
  if l = 0 || r = 0 then begin
    let m = if l = 0 then r else l in
    if m <> cur then write_link acc h link m
  end
  else if pl > pr then begin
    if l <> cur then write_link acc h link l;
    let lr = right_of acc l in
    zip acc h (-l) lr lr (prio_at acc lr) r pr
  end
  else begin
    if r <> cur then write_link acc h link r;
    let rl = left_of acc r in
    zip acc h r rl l pl rl (prio_at acc rl)
  end

and prio_at acc n = if n = 0 then 0 else prio_of_key (key_of acc n)

let remove (acc : Access.t) h key =
  let rec go link n =
    if n = 0 then false
    else
      let k = key_of acc n in
      if key = k then begin
        let l = left_of acc n and r = right_of acc n in
        zip acc h link n l (prio_at acc l) r (prio_at acc r);
        acc.free n;
        true
      end
      else if key < k then go n (left_of acc n)
      else go (-n) (right_of acc n)
  in
  go root_link (acc.read ~site:site_root_r (h + h_root))

let fold (acc : Access.t) h ~init ~f =
  let rec go n acc_v =
    if n = 0 then acc_v
    else
      let acc_v = go (left_of acc n) acc_v in
      let acc_v = f acc_v (key_of acc n) (acc.read ~site:site_val_r (n + f_val)) in
      go (right_of acc n) acc_v
  in
  go (acc.read ~site:site_root_r (h + h_root)) init

let shape (acc : Access.t) h =
  let rec go n depth (height, total) =
    if n = 0 then (height, total)
    else
      let below = (max height depth, total + depth) in
      go (right_of acc n) (depth + 1) (go (left_of acc n) (depth + 1) below)
  in
  go (acc.read ~site:site_root_r (h + h_root)) 1 (0, 0)

let check (acc : Access.t) h =
  (* [go n ~lo ~hi ~above] checks the subtree at [n]: its keys must lie
     strictly between the bounds present, and their priorities must not
     exceed [above]. *)
  let rec go n ~lo ~hi ~above =
    if n = 0 then Ok ()
    else
      let k = key_of acc n in
      let p = prio_of_key k in
      if Option.fold ~none:false ~some:(fun b -> k <= b) lo
         || Option.fold ~none:false ~some:(fun b -> k >= b) hi
      then Error (Printf.sprintf "key %d out of search order" k)
      else if p > above then
        Error (Printf.sprintf "key %d outranks its parent" k)
      else
        Result.bind (go (left_of acc n) ~lo ~hi:(Some k) ~above:p) (fun () ->
            go (right_of acc n) ~lo:(Some k) ~hi ~above:p)
  in
  go (acc.read ~site:site_root_r (h + h_root)) ~lo:None ~hi:None ~above:max_int
