module Site = Captured_core.Site

type verdict = {
  site : string;
  captured : bool;
  shared : bool;
      (* every in-atomic visit's address denotes only globals: runtime
         capture checks can be statically skipped (paper's future work) *)
  manual : bool;
  visits : int;
}

(* Abstract locations.  [scopes] is the set of atomic-scope ids that were
   open when the allocation executed; closing a scope strips its id, so an
   empty set means "ordinary (possibly shared) memory". *)
module Aloc = struct
  type t =
    | Unknown
    | Global of string
    | Stack of string * int list (* alloca label, open scopes *)
    | Heap of string * int list (* malloc label, open scopes *)

  let compare = compare
end

module ASet = Set.Make (Aloc)

module Env = Map.Make (String)
(* var -> ASet.t *)

type state = { env : ASet.t Env.t }

type ctx = {
  program : Ir.program;
  inline_depth : int;
  (* site -> (visits, captured_all, shared_any, captured_any) *)
  verdicts : (string, int * bool * bool * bool) Hashtbl.t;
  site_manual : (string, bool) Hashtbl.t;
  freed : (string, unit) Hashtbl.t; (* poisoned heap labels *)
  mutable next_scope : int;
}

type result = { list : verdict list }

let join_state a b =
  {
    env =
      Env.merge
        (fun _ x y ->
          match (x, y) with
          | Some s1, Some s2 -> Some (ASet.union s1 s2)
          | Some s, None | None, Some s ->
              (* Variable defined on one path only: joining with
                 "undefined" must stay conservative. *)
              Some (ASet.add Aloc.Unknown s)
          | None, None -> None)
        a.env b.env;
  }

let state_equal a b = Env.equal ASet.equal a.env b.env

let lookup st var =
  match Env.find_opt var st.env with
  | Some s -> s
  | None -> ASet.singleton Aloc.Unknown

let rec eval st (e : Ir.expr) =
  match e with
  | Ir.Const _ -> ASet.empty
  | Ir.Var x -> lookup st x
  | Ir.Global g -> ASet.singleton (Aloc.Global g)
  | Ir.Binop (_, a, b) -> ASet.union (eval st a) (eval st b)
  | Ir.Not a -> eval st a

(* Closing atomic scope [s]: strip it from every allocation's scope set. *)
let close_scope s st =
  let strip = function
    | Aloc.Stack (l, scopes) -> Aloc.Stack (l, List.filter (( <> ) s) scopes)
    | Aloc.Heap (l, scopes) -> Aloc.Heap (l, List.filter (( <> ) s) scopes)
    | (Aloc.Unknown | Aloc.Global _) as a -> a
  in
  { env = Env.map (fun set -> ASet.map strip set) st.env }

(* Does the address denote only globals, on this path? *)
let set_shared set =
  (not (ASet.is_empty set))
  && ASet.for_all
       (function
         | Aloc.Global _ -> true
         | Aloc.Unknown | Aloc.Stack _ | Aloc.Heap _ -> false)
       set

(* Is this access captured relative to the innermost open scope? *)
let set_captured ctx innermost set =
  (not (ASet.is_empty set))
  && ASet.for_all
       (fun a ->
         match a with
         | Aloc.Unknown | Aloc.Global _ -> false
         | Aloc.Stack (_, scopes) -> List.mem innermost scopes
         | Aloc.Heap (label, scopes) ->
             List.mem innermost scopes && not (Hashtbl.mem ctx.freed label))
       set

(* [captured] must hold on EVERY visit to elide the barrier (false
   negatives only).  [shared] is a performance hint — skipping a runtime
   check is always safe — so one provably-global visit suffices, as long
   as no visit is captured (a captured site should keep its checks). *)
let note_site ctx site manual ~captured ~shared =
  Hashtbl.replace ctx.site_manual site manual;
  match Hashtbl.find_opt ctx.verdicts site with
  | None -> Hashtbl.replace ctx.verdicts site (1, captured, shared, captured)
  | Some (n, c_all, s_any, c_any) ->
      Hashtbl.replace ctx.verdicts site
        (n + 1, c_all && captured, s_any || shared, c_any || captured)

(* Poison every site transitively reachable from [fname]: used when a call
   cannot be inlined (recursion / depth bound) so its sites may run with
   arbitrary pointers. *)
let poison_callee ctx fname =
  let seen = Hashtbl.create 8 in
  let rec go name =
    if not (Hashtbl.mem seen name) then begin
      Hashtbl.add seen name ();
      match Ir.find_func ctx.program name with
      | None -> ()
      | Some f ->
          let rec walk_block b = List.iter walk b
          and walk (s : Ir.stmt) =
            match s with
            | Ir.Load { site; manual; _ } | Ir.Store { site; manual; _ } ->
                note_site ctx site manual ~captured:false ~shared:false
            | Ir.If (_, b1, b2) ->
                walk_block b1;
                walk_block b2
            | Ir.While (_, b) | Ir.Atomic b -> walk_block b
            | Ir.Call { func; _ } -> go func
            | Ir.Let _ | Ir.Alloca _ | Ir.Malloc _ | Ir.Free _ | Ir.Return _
            | Ir.Abort ->
                ()
          in
          walk_block f.body
    end
  in
  go fname

(* Walk a block.  [scopes] = open atomic scope ids, innermost first.
   Returns the out-state and the join of all returned value sets. *)
let rec walk_block ctx ~scopes ~depth st block =
  List.fold_left
    (fun (st, ret) stmt ->
      let st', ret' = walk_stmt ctx ~scopes ~depth st stmt in
      let ret =
        match (ret, ret') with
        | None, r | r, None -> r
        | Some a, Some b -> Some (ASet.union a b)
      in
      (st', ret))
    (st, None) block

and walk_stmt ctx ~scopes ~depth st (stmt : Ir.stmt) =
  match stmt with
  | Ir.Let (x, e) -> ({ env = Env.add x (eval st e) st.env }, None)
  | Ir.Load { dst; addr; site; manual } ->
      (match scopes with
      | innermost :: _ ->
          let set = eval st addr in
          note_site ctx site manual
            ~captured:(set_captured ctx innermost set)
            ~shared:(set_shared set)
      | [] -> ());
      ({ env = Env.add dst (ASet.singleton Aloc.Unknown) st.env }, None)
  | Ir.Store { addr; site; manual; value = _ } ->
      (match scopes with
      | innermost :: _ ->
          let set = eval st addr in
          note_site ctx site manual
            ~captured:(set_captured ctx innermost set)
            ~shared:(set_shared set)
      | [] -> ());
      (st, None)
  | Ir.Alloca { dst; label; _ } ->
      ( { env = Env.add dst (ASet.singleton (Aloc.Stack (label, scopes))) st.env },
        None )
  | Ir.Malloc { dst; label; _ } ->
      ( { env = Env.add dst (ASet.singleton (Aloc.Heap (label, scopes))) st.env },
        None )
  | Ir.Free e ->
      ASet.iter
        (function
          | Aloc.Heap (label, _) -> Hashtbl.replace ctx.freed label ()
          | Aloc.Unknown | Aloc.Global _ | Aloc.Stack _ -> ())
        (eval st e);
      (st, None)
  | Ir.If (_, b1, b2) ->
      let st1, r1 = walk_block ctx ~scopes ~depth st b1 in
      let st2, r2 = walk_block ctx ~scopes ~depth st b2 in
      let ret =
        match (r1, r2) with
        | None, r | r, None -> r
        | Some a, Some b -> Some (ASet.union a b)
      in
      (join_state st1 st2, ret)
  | Ir.While (_, body) ->
      (* Fixpoint: the loop may run zero or more times.  At least two
         passes so that a [Free] in the body poisons same-body sites that
         precede it lexically but follow it on iteration k+1. *)
      let rec iterate st rounds =
        let st_body, _ = walk_block ctx ~scopes ~depth st body in
        let st' = join_state st st_body in
        if (state_equal st st' && rounds >= 2) || rounds > 50 then st'
        else iterate st' (rounds + 1)
      in
      (iterate st 1, None)
  | Ir.Atomic body ->
      let scope_id = ctx.next_scope in
      ctx.next_scope <- ctx.next_scope + 1;
      let st', _ = walk_block ctx ~scopes:(scope_id :: scopes) ~depth st body in
      (close_scope scope_id st', None)
  | Ir.Call { dst; func; args } -> (
      match Ir.find_func ctx.program func with
      | Some f when depth < ctx.inline_depth ->
          let arg_sets = List.map (eval st) args in
          let callee_env =
            List.fold_left2
              (fun env p a -> Env.add p a env)
              Env.empty f.params arg_sets
          in
          let _, ret =
            walk_block ctx ~scopes ~depth:(depth + 1) { env = callee_env }
              f.body
          in
          let result =
            match ret with Some s -> s | None -> ASet.singleton Aloc.Unknown
          in
          let st =
            match dst with
            | Some d -> { env = Env.add d result st.env }
            | None -> st
          in
          (st, None)
      | Some _ ->
          (* Depth bound hit inside an analysis that still runs the callee
             at execution time: poison its sites. *)
          poison_callee ctx func;
          let st =
            match dst with
            | Some d -> { env = Env.add d (ASet.singleton Aloc.Unknown) st.env }
            | None -> st
          in
          (st, None)
      | None ->
          let st =
            match dst with
            | Some d -> { env = Env.add d (ASet.singleton Aloc.Unknown) st.env }
            | None -> st
          in
          (st, None))
  | Ir.Return e -> (st, Some (eval st e))
  | Ir.Abort -> (st, None)

let analyze ?(inline_depth = 5) program =
  let ctx =
    {
      program;
      inline_depth;
      verdicts = Hashtbl.create 128;
      site_manual = Hashtbl.create 128;
      freed = Hashtbl.create 16;
      next_scope = 0;
    }
  in
  (* Every function is a potential entry point (analyzed with Unknown
     params); inlined analyses of callees add further context-specific
     visits.  Freed-label poisoning is flow-ordered: a captured claim can
     only concern an allocation made inside the current atomic block, and
     any [free] relevant to it is encountered later in the same walk
     (loops are walked at least twice so cross-iteration use-after-free is
     seen). *)
  List.iter
    (fun (f : Ir.func) ->
      let env =
        List.fold_left
          (fun env p -> Env.add p (ASet.singleton Aloc.Unknown) env)
          Env.empty f.params
      in
      ignore (walk_block ctx ~scopes:[] ~depth:0 { env } f.body))
    program.funcs;
  let list =
    Ir.sites program
    |> List.map (fun (site, manual) ->
           match Hashtbl.find_opt ctx.verdicts site with
           | Some (visits, captured_all, shared_any, captured_any) ->
               {
                 site;
                 captured = captured_all;
                 shared = shared_any && not captured_any;
                 manual;
                 visits;
               }
           | None ->
               { site; captured = false; shared = false; manual; visits = 0 })
  in
  { list }

let verdicts r = r.list

let apply r =
  List.iter
    (fun v ->
      if v.captured || v.shared then begin
        (match Site.find v.site with
        | Some _ -> ()
        | None ->
            ignore (Site.declare ~manual:v.manual ~write:false v.site : Site.id));
        if v.captured then Site.set_captured_by_name v.site;
        if v.shared then Site.set_shared_by_name v.site
      end)
    r.list

let pp fmt r =
  List.iter
    (fun v ->
      Format.fprintf fmt "%-40s %s%s (%d visits)@."
        v.site
        (if v.captured then "CAPTURED"
         else if v.shared then "SHARED* " (* definitely shared: skip checks *)
         else "unknown ")
        (if v.manual then " [manual]" else "")
        v.visits)
    r.list
