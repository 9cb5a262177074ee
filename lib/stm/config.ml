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
  array_capacity : int;
  cm : Cm.policy;
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
    array_capacity = 4;
    cm = Cm.Backoff;
    fault = None;
    fences = false;
    lazy_versioning = false;
    durable = false;
    wal_group = 4;
    ebr = false;
  }

let baseline = default
let runtime ?(scope = full_scope) backend =
  { default with analysis = Runtime backend; scope }

let compiler = { default with analysis = Compiler }

let runtime_hybrid ?(scope = full_scope) backend =
  { default with analysis = Runtime backend; scope; static_filter = true }

let with_fastpath ?(on = true) t = { t with fastpath = on }
let with_tvalidate ?(on = true) t = { t with tvalidate = on }
let with_cm policy t = { t with cm = policy }

let with_fences ?(on = true) t = { t with fences = on }

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

let with_ebr ?(on = true) t = { t with ebr = on }
let with_fault fault t = { t with fault }
(* A match, not [t.fault = Some kind]: that boxes [Some kind] on every
   call, and validation asks on the barrier path. *)
let has_fault t kind = match t.fault with Some k -> k = kind | None -> false

let audit = { default with audit = true }

let name t =
  let scope_name s =
    match (s.check_stack, s.check_heap, s.on_reads, s.on_writes) with
    | true, true, true, true -> "stack+heap,r+w"
    | true, true, false, true -> "stack+heap,w"
    | false, true, false, true -> "heap,w"
    | _ ->
        Printf.sprintf "%s%s,%s%s"
          (if s.check_stack then "stack" else "")
          (if s.check_heap then "+heap" else "")
          (if s.on_reads then "r" else "")
          (if s.on_writes then "+w" else "")
  in
  let suffix =
    (if t.fastpath then "+fp" else "")
    ^ (if t.tvalidate then "+tv" else "")
    ^ (if t.lazy_versioning then "+lazy" else "")
    ^ (if t.durable then "+wal" else "")
    ^ (if t.ebr then "+ebr" else "")
    ^ (match t.cm with
      | Cm.Backoff -> ""
      | p -> "+cm:" ^ Cm.policy_name p)
    ^ (if t.fences then "+fence" else "")
    ^ (match t.fault with
      | None -> ""
      | Some f -> "+fault:" ^ Fault.name f)
  in
  match t.analysis with
  | Baseline -> (if t.audit then "audit" else "baseline") ^ suffix
  | Runtime b ->
      Printf.sprintf "%s-%s(%s)%s"
        (if t.static_filter then "hybrid" else "runtime")
        (Alloc_log.backend_name b) (scope_name t.scope) suffix
  | Compiler -> "compiler" ^ suffix

let mode_name t =
  (if t.lazy_versioning then "lazy" else "eager")
  ^ (if t.fastpath then "+fp" else "")
  ^ (if t.tvalidate then "+tv" else "")
  ^ (if t.durable then "+wal" else "")
  ^ if t.ebr then "+ebr" else ""

let of_mode_name ?(base = default) name =
  match String.split_on_char '+' name with
  | (("eager" | "lazy") as versioning) :: flags
    when List.for_all (fun f -> List.mem f [ "fp"; "tv"; "wal"; "ebr" ]) flags
         && List.length (List.sort_uniq compare flags) = List.length flags ->
      let on f = List.mem f flags in
      Some
        {
          base with
          lazy_versioning = versioning = "lazy";
          fastpath = on "fp";
          tvalidate = on "tv";
          durable = on "wal";
          ebr = on "ebr";
        }
  | _ -> None
