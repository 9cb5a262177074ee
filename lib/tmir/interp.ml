module Memory = Captured_tmem.Memory
module Tstack = Captured_tmem.Tstack
module Alloc = Captured_tmem.Alloc
module Site = Captured_core.Site
module Txn = Captured_stm.Txn

exception Runtime_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

type genv = { program : Ir.program; globals : (string, int) Hashtbl.t }

let load program ~arena ~memory =
  (match Ir.validate program with
  | Ok () -> ()
  | Error m -> fail "invalid program: %s" m);
  (* Pre-declare every site so analysis verdicts applied before or after
     loading land on the same registry entries. *)
  List.iter
    (fun (site, manual) ->
      match Site.find site with
      | Some _ -> ()
      | None -> ignore (Site.declare ~manual ~write:false site : Site.id))
    (Ir.sites program);
  let globals = Hashtbl.create 16 in
  List.iter
    (fun (g : Ir.global) ->
      let addr = Alloc.alloc arena g.gwords in
      (match g.ginit with
      | Some init ->
          Array.iteri (fun k x -> Memory.set memory (addr + k) x) init
      | None -> ());
      Hashtbl.replace globals g.gname addr)
    program.globals;
  { program; globals }

let global_addr genv name =
  match Hashtbl.find_opt genv.globals name with
  | Some a -> a
  | None -> fail "unknown global %s" name

(* Site labels resolve lazily into the global registry; IR sites are
   prefixed to avoid colliding with the native workloads' names only when
   the model *wants* distinct sites — models that share names with native
   sites use them as-is, which is the verdict-transport mechanism. *)
let site_id name ~manual ~write =
  match Site.find name with
  | Some id -> id
  | None -> Site.declare ~manual ~write name

type frame = { vars : (string, int) Hashtbl.t }

type flow = Normal | Returned of int

let truthy x = x <> 0

let rec eval genv th frame (e : Ir.expr) =
  match e with
  | Ir.Const n -> n
  | Ir.Var x -> (
      match Hashtbl.find_opt frame.vars x with
      | Some v -> v
      | None -> fail "unbound variable %s" x)
  | Ir.Global g -> global_addr genv g
  | Ir.Binop (op, a, b) ->
      let x = eval genv th frame a in
      let y = eval genv th frame b in
      (match op with
      | Ir.Add -> x + y
      | Ir.Sub -> x - y
      | Ir.Mul -> x * y
      | Ir.Div -> if y = 0 then fail "division by zero" else x / y
      | Ir.Mod -> if y = 0 then fail "mod by zero" else x mod y
      | Ir.Lt -> if x < y then 1 else 0
      | Ir.Le -> if x <= y then 1 else 0
      | Ir.Gt -> if x > y then 1 else 0
      | Ir.Ge -> if x >= y then 1 else 0
      | Ir.Eq -> if x = y then 1 else 0
      | Ir.Ne -> if x <> y then 1 else 0
      | Ir.And -> if truthy x && truthy y then 1 else 0
      | Ir.Or -> if truthy x || truthy y then 1 else 0)
  | Ir.Not a -> if truthy (eval genv th frame a) then 0 else 1

(* [tx] is the innermost transaction, if any. *)
let rec exec_block genv th tx frame block =
  match block with
  | [] -> Normal
  | stmt :: rest -> (
      match exec_stmt genv th tx frame stmt with
      | Normal -> exec_block genv th tx frame rest
      | Returned _ as r -> r)

and exec_stmt genv th tx frame (stmt : Ir.stmt) =
  let ev e = eval genv th frame e in
  match stmt with
  | Ir.Let (x, e) ->
      Hashtbl.replace frame.vars x (ev e);
      Normal
  | Ir.Load { dst; addr; site; manual } ->
      let a = ev addr in
      let v =
        match tx with
        | Some tx -> Txn.read_at ~site:(site_id site ~manual ~write:false) tx a
        | None -> Txn.raw_read th a
      in
      Hashtbl.replace frame.vars dst v;
      Normal
  | Ir.Store { addr; value; site; manual } ->
      let a = ev addr in
      let v = ev value in
      (match tx with
      | Some tx -> Txn.write_at ~site:(site_id site ~manual ~write:true) tx a v
      | None -> Txn.raw_write th a v);
      Normal
  | Ir.Alloca { dst; words; _ } ->
      let a =
        match tx with
        | Some tx -> Txn.alloca tx words
        | None -> Tstack.alloca (Txn.thread_stack th) words
      in
      Hashtbl.replace frame.vars dst a;
      Normal
  | Ir.Malloc { dst; words; _ } ->
      let n = ev words in
      if n <= 0 then fail "malloc of %d words" n;
      let a =
        match tx with Some tx -> Txn.alloc tx n | None -> Txn.raw_alloc th n
      in
      Hashtbl.replace frame.vars dst a;
      Normal
  | Ir.Free e ->
      let a = ev e in
      (match tx with Some tx -> Txn.free tx a | None -> Txn.raw_free th a);
      Normal
  | Ir.If (c, b1, b2) ->
      if truthy (ev c) then exec_block genv th tx frame b1
      else exec_block genv th tx frame b2
  | Ir.While (c, body) ->
      let rec loop () =
        if truthy (ev c) then
          match exec_block genv th tx frame body with
          | Normal -> loop ()
          | Returned _ as r -> r
        else Normal
      in
      loop ()
  | Ir.Atomic body -> (
      (* Local variables mutated inside the block must be rolled back on
         abort/retry, like registers checkpointed at transaction begin. *)
      let snapshot = Hashtbl.copy frame.vars in
      let reset () =
        Hashtbl.reset frame.vars;
        Hashtbl.iter (fun k v -> Hashtbl.replace frame.vars k v) snapshot
      in
      try
        Txn.atomic th (fun tx ->
            reset ();
            exec_block genv th (Some tx) frame body)
      with Txn.User_abort ->
        (* [Abort] rolled the scope back; execution resumes after the
           atomic block. *)
        reset ();
        Normal)
  | Ir.Call { dst; func; args } ->
      let argv = List.map ev args in
      let r = call_func genv th tx func argv in
      (match dst with
      | Some d -> Hashtbl.replace frame.vars d r
      | None -> ());
      Normal
  | Ir.Return e -> Returned (ev e)
  | Ir.Abort -> (
      match tx with
      | Some tx -> Txn.abort tx
      | None -> fail "abort outside atomic")

and call_func genv th tx fname argv =
  match Ir.find_func genv.program fname with
  | None -> fail "unknown function %s" fname
  | Some f ->
      if List.length f.params <> List.length argv then
        fail "arity mismatch calling %s" fname;
      let frame = { vars = Hashtbl.create 16 } in
      List.iter2 (fun p a -> Hashtbl.replace frame.vars p a) f.params argv;
      (* Function frames restore the simulated stack on exit, popping any
         allocas. *)
      let stack = Txn.thread_stack th in
      let mark = Tstack.save stack in
      let restore () =
        (* Inside a transaction the txn's own scope handling may already
           have restored below our mark on abort; only pop if still
           deeper. *)
        if Tstack.sp stack < mark then Tstack.restore stack mark
      in
      let result =
        try exec_block genv th tx frame f.body
        with e ->
          restore ();
          raise e
      in
      restore ();
      (match result with Returned v -> v | Normal -> 0)

let call genv th fname argv = call_func genv th None fname argv
