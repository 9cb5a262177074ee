type id = int

type meta = { name : string; write : bool; manual : bool; init_only : bool }

let metas : meta array ref =
  ref
    (Array.make 64
       { name = ""; write = false; manual = true; init_only = false })
(* The compiler verdicts, one int per site: [captured_bit] and
   [shared_bit]. *)
let verdicts : int array ref = ref (Array.make 64 0)
let captured_bit = 1
let shared_bit = 2
let next = ref 0
let by_name : (string, int) Hashtbl.t = Hashtbl.create 256

let grow () =
  let old = !metas in
  let bigger = Array.make (2 * Array.length old) old.(0) in
  Array.blit old 0 bigger 0 (Array.length old);
  metas := bigger;
  let oldv = !verdicts in
  let biggerv = Array.make (2 * Array.length oldv) 0 in
  Array.blit oldv 0 biggerv 0 (Array.length oldv);
  verdicts := biggerv

let declare ?(manual = true) ?(init_only = false) ~write name =
  if Hashtbl.mem by_name name then
    invalid_arg ("Site.declare: duplicate site " ^ name);
  if init_only && write then
    invalid_arg ("Site.declare: init-only write site " ^ name);
  if !next >= Array.length !metas then grow ();
  let id = !next in
  !metas.(id) <- { name; write; manual; init_only };
  Hashtbl.add by_name name id;
  incr next;
  id

let anonymous_read = declare ~write:false "anonymous.read"
let anonymous_write = declare ~write:true "anonymous.write"

let meta id =
  if id < 0 || id >= !next then invalid_arg "Site.meta: unknown site";
  !metas.(id)

let is_init_only id = !metas.(id).init_only
let count () = !next
let find name = Hashtbl.find_opt by_name name

let reset_verdicts () = Array.fill !verdicts 0 (Array.length !verdicts) 0
let mark id bit = !verdicts.(id) <- !verdicts.(id) lor bit
let set_captured id = mark id captured_bit

let set_captured_by_name name =
  match find name with Some id -> set_captured id | None -> ()

let is_captured_static id = !verdicts.(id) land captured_bit <> 0
let set_shared id = mark id shared_bit

let set_shared_by_name name =
  match find name with Some id -> set_shared id | None -> ()

let is_shared_static id = !verdicts.(id) land shared_bit <> 0
