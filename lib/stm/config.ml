module Alloc_log = Captured_core.Alloc_log

type analysis = Baseline | Runtime of Alloc_log.backend | Compiler

type scope = {
  check_stack : bool;
  check_heap : bool;
  on_reads : bool;
  on_writes : bool;
}

type t = {
  analysis : analysis;
  scope : scope;
  fastpath : bool;
  tvalidate : bool;
  static_filter : bool;
  audit : bool;
  orec_bits : int;
  fault : Fault.kind option;
  fences : bool;
  lazy_versioning : bool;
  durable : bool;
  wal_group : int;
  ebr : bool;
}

let full_scope =
  { check_stack = true; check_heap = true; on_reads = true; on_writes = true }

let write_only_scope =
  { check_stack = true; check_heap = true; on_reads = false; on_writes = true }

let heap_write_only_scope =
  { check_stack = false; check_heap = true; on_reads = false; on_writes = true }

let default =
  {
    analysis = Baseline;
    scope = full_scope;
    fastpath = false;
    tvalidate = false;
    static_filter = false;
    audit = false;
    orec_bits = 17;
    fault = None;
    fences = false;
    lazy_versioning = false;
    durable = false;
    wal_group = 4;
    ebr = true;
  }

let baseline = default
let runtime ?(scope = full_scope) backend =
  { default with analysis = Runtime backend; scope }

let compiler = { default with analysis = Compiler }

let with_fastpath ?(on = true) t = { t with fastpath = on }
let with_tvalidate ?(on = true) t = { t with tvalidate = on }

type clock = Scan | Global

let clock t = if t.tvalidate then Global else Scan

let with_lazy ?(on = true) t = { t with lazy_versioning = on }

let with_durable ?group ?(on = true) t =
  let wal_group =
    match group with
    | None -> t.wal_group
    | Some g ->
        if g < 1 then invalid_arg "Config.with_durable: group must be >= 1";
        g
  in
  { t with durable = on; wal_group }

(* Reclamation is unconditional; kept for callers that still name it. *)
let with_ebr t = t
let with_fault fault t = { t with fault }
(* A match, not [t.fault = Some kind]: that boxes [Some kind] on every
   call, and validation asks on the barrier path. *)
let has_fault t kind = match t.fault with Some k -> k = kind | None -> false

let audit = { default with audit = true }

(* The configuration grammar: a head naming [analysis] (a runtime backend
   as {!Alloc_log.backend_name} spells it), then one [+] token per field
   off its [default] value, in this table's order. *)
type token = {
  key : string;
  help : string;
  show : t -> string option;  (** [None] at the field's default *)
  read : string option -> t -> t option;  (** the text after [key:] *)
}

let flag key get set =
  {
    key;
    help = key;
    show = (fun t -> if get t then Some key else None);
    read = (fun arg t -> if arg = None then Some (set t) else None);
  }

let valued key help get set print parse =
  {
    key;
    help = key ^ ":" ^ help;
    show =
      (fun t ->
        if get t = get default then None else Some (key ^ ":" ^ print (get t)));
    read = (fun arg t -> Option.map (set t) (Option.bind arg parse));
  }

(* Canonical decimal only, so every accepted integer prints back as read. *)
let int_token key ~lo ~hi get set =
  valued key
    (Printf.sprintf "N (%d <= N%s)" lo
       (if hi = max_int then "" else Printf.sprintf " <= %d" hi))
    get set string_of_int
    (fun s ->
      match int_of_string_opt s with
      | Some n when lo <= n && n <= hi && string_of_int n = s -> Some n
      | _ -> None)

let scope_letters s =
  (if s.check_stack then "s" else "")
  ^ (if s.check_heap then "h" else "")
  ^ (if s.on_reads then "r" else "")
  ^ if s.on_writes then "w" else ""

(* Letters must be a subsequence of [shrw]: one spelling per scope. *)
let scope_of_letters l =
  let has c = String.contains l c in
  let s =
    { check_stack = has 's'; check_heap = has 'h'; on_reads = has 'r';
      on_writes = has 'w' }
  in
  if scope_letters s = l then Some s else None

let tokens =
  [
    valued "scope" "L (L a subsequence of shrw)"
      (fun t -> t.scope)
      (fun t scope -> { t with scope })
      scope_letters scope_of_letters;
    flag "sf" (fun t -> t.static_filter) (fun t -> { t with static_filter = true });
    flag "audit" (fun t -> t.audit) (fun t -> { t with audit = true });
    flag "fp" (fun t -> t.fastpath) with_fastpath;
    flag "tv" (fun t -> t.tvalidate) with_tvalidate;
    flag "lazy" (fun t -> t.lazy_versioning) with_lazy;
    flag "wal" (fun t -> t.durable) (fun t -> { t with durable = true });
    int_token "group" ~lo:1 ~hi:max_int
      (fun t -> t.wal_group)
      (fun t wal_group -> { t with wal_group });
    flag "fence" (fun t -> t.fences) (fun t -> { t with fences = true });
    valued "fault" (String.concat "|" Fault.names)
      (fun t -> t.fault)
      (fun t fault -> { t with fault })
      (function Some f -> Fault.name f | None -> "")
      (fun s -> Option.map Option.some (Fault.of_name s));
    int_token "orecs" ~lo:4 ~hi:24
      (fun t -> t.orec_bits)
      (fun t orec_bits -> { t with orec_bits });
  ]

let heads =
  ("baseline", Baseline) :: ("compiler", Compiler)
  :: List.map
       (fun b -> (Alloc_log.backend_name b, Runtime b))
       Alloc_log.all_backends

let to_string t =
  String.concat "+"
    (fst (List.find (fun (_, a) -> a = t.analysis) heads)
    :: List.filter_map (fun tok -> tok.show t) tokens)

let grammar () =
  Printf.sprintf "%s, then any of %s"
    (String.concat "|" (List.map fst heads))
    (String.concat " " (List.map (fun tok -> "+" ^ tok.help) tokens))

let of_string s =
  let fail what part =
    Error
      (Printf.sprintf "%s %S in config %S (known: %s)" what part s (grammar ()))
  in
  let rec parse t seen = function
    | [] -> Ok t
    | part :: rest -> (
        let key, arg =
          match String.index_opt part ':' with
          | None -> (part, None)
          | Some i ->
              ( String.sub part 0 i,
                Some (String.sub part (i + 1) (String.length part - i - 1)) )
        in
        match List.find_opt (fun tok -> tok.key = key) tokens with
        | None -> fail "unknown token" part
        | Some _ when List.mem key seen -> fail "repeated token" part
        | Some tok -> (
            match tok.read arg t with
            | None -> fail "bad value in token" part
            | Some t -> parse t (key :: seen) rest))
  in
  match String.split_on_char '+' s with
  | [] -> assert false
  | head :: parts -> (
      match List.assoc_opt head heads with
      | None -> fail "unknown head" head
      | Some analysis -> parse { default with analysis } [] parts)
