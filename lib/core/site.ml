type id = int

type meta = { name : string; write : bool; manual : bool }

let metas : meta array ref = ref (Array.make 64 { name = ""; write = false; manual = true })
let verdicts : bool array ref = ref (Array.make 64 false)
let shared_verdicts : bool array ref = ref (Array.make 64 false)
let next = ref 0
let by_name : (string, int) Hashtbl.t = Hashtbl.create 256

let grow () =
  let old = !metas in
  let bigger = Array.make (2 * Array.length old) old.(0) in
  Array.blit old 0 bigger 0 (Array.length old);
  metas := bigger;
  let oldv = !verdicts in
  let biggerv = Array.make (2 * Array.length oldv) false in
  Array.blit oldv 0 biggerv 0 (Array.length oldv);
  verdicts := biggerv;
  let olds = !shared_verdicts in
  let biggers = Array.make (2 * Array.length olds) false in
  Array.blit olds 0 biggers 0 (Array.length olds);
  shared_verdicts := biggers

let declare ?(manual = true) ~write name =
  if Hashtbl.mem by_name name then
    invalid_arg ("Site.declare: duplicate site " ^ name);
  if !next >= Array.length !metas then grow ();
  let id = !next in
  !metas.(id) <- { name; write; manual };
  Hashtbl.add by_name name id;
  incr next;
  id

let anonymous_read = declare ~write:false "anonymous.read"
let anonymous_write = declare ~write:true "anonymous.write"

let meta id =
  if id < 0 || id >= !next then invalid_arg "Site.meta: unknown site";
  !metas.(id)

let count () = !next
let find name = Hashtbl.find_opt by_name name

let reset_verdicts () =
  Array.fill !verdicts 0 (Array.length !verdicts) false;
  Array.fill !shared_verdicts 0 (Array.length !shared_verdicts) false
let set_captured id = !verdicts.(id) <- true

let set_captured_by_name name =
  match find name with Some id -> set_captured id | None -> ()

let is_captured_static id = !verdicts.(id)
let set_shared id = !shared_verdicts.(id) <- true

let set_shared_by_name name =
  match find name with Some id -> set_shared id | None -> ()

let is_shared_static id = !shared_verdicts.(id)
