module Config = Captured_stm.Config
module Engine = Captured_stm.Engine
module Txn = Captured_stm.Txn
module Site = Captured_core.Site
module Memory = Captured_tmem.Memory
module Alloc = Captured_tmem.Alloc
module Prng = Captured_util.Prng
module Fixed = Captured_util.Fixed
module Access = Captured_tstruct.Access
module Tlist = Captured_tstruct.Tlist
module Tvector = Captured_tstruct.Tvector
module Theap = Captured_tstruct.Theap
open Captured_tmir.Ir

let site_data_r = Site.declare ~manual:false ~init_only:true ~write:false
    "bayes.data_r"
let site_parents_r = Site.declare ~write:false "bayes.parents_r"
let site_task_init_var =
  Site.declare ~manual:false ~write:true "bayes.task_init.var"
let site_task_init_parent =
  Site.declare ~manual:false ~write:true "bayes.task_init.parent"
let site_task_init_gain =
  Site.declare ~manual:false ~write:true "bayes.task_init.gain"
let site_task_var_r =
  Site.declare ~init_only:true ~write:false "bayes.task.var_r"
let site_task_parent_r =
  Site.declare ~init_only:true ~write:false "bayes.task.parent_r"
let site_task_gain_r =
  Site.declare ~init_only:true ~write:false "bayes.task.gain_r"
let site_pending_r = Site.declare ~write:false "bayes.pending_r"
let site_pending_w = Site.declare ~write:true "bayes.pending_w"

(* Task record: {var, parent, gain}. *)
let t_var = 0
let t_parent = 1
let t_gain = 2
let task_words = 3

type params = { nvars : int; nrecords : int; max_parents : int }

let params_of = function
  | App.Test -> { nvars = 8; nrecords = 64; max_parents = 2 }
  | App.Bench -> { nvars = 12; nrecords = 160; max_parents = 2 }
  | App.Large -> { nvars = 24; nrecords = 512; max_parents = 2 }
(* max_parents is capped at 2: the adtree rows cover variable sets of size
   <= 3 (var + 2 parents + candidate during search). *)

(* Heap orders task addresses by gain. *)
let heap_cmp : Theap.cmp =
 fun acc a b ->
  compare
    (acc.Access.read ~site:site_task_gain_r (a + t_gain))
    (acc.Access.read ~site:site_task_gain_r (b + t_gain))

let prepare ~nthreads ~scale config =
  let p = params_of scale in
  let world =
    Engine.create ~nthreads ~global_words:(1 lsl 18) ~arena_words:(1 lsl 19)
      config
  in
  let arena = Engine.global_arena world in
  let setup = Access.of_arena arena in
  let mem = Engine.memory world in
  (* Records: one word each, bit i = value of var i.  Chain-correlated
     ground truth. *)
  let g = Prng.create 0xBA1E5 in
  let data = Alloc.alloc arena p.nrecords in
  for r = 0 to p.nrecords - 1 do
    let word = ref (if Prng.bool g then 1 else 0) in
    for iv = 1 to p.nvars - 1 do
      let prev = (!word lsr (iv - 1)) land 1 in
      let bit = if Prng.chance g ~percent:20 then 1 - prev else prev in
      word := !word lor (bit lsl iv)
    done;
    Memory.set mem (data + r) !word
  done;
  (* Network: parent list per var. *)
  let parents = Alloc.alloc arena p.nvars in
  for iv = 0 to p.nvars - 1 do
    Memory.set mem (parents + iv) (Tlist.create setup)
  done;
  let work = Theap.create setup ~capacity:32 () in
  (* Outstanding tasks (queued or being applied): threads exit only when
     it reaches zero — a transiently empty heap is not termination. *)
  let pending = setup.Access.alloc 1 in
  let barrier = Sync.create setup ~nthreads in
  (* --- scoring ------------------------------------------------------ *)
  (* Log-likelihood of [var] given the parent ids in the (transactional)
     query vector [qv] positions [1..]; position 0 is the var itself.
     Reads of the query vector are captured (Figure 1(b)); record reads
     are shared read-only. *)
  (* The "adtree": precomputed joint counts over every <=3-variable set,
     built once at init and only ever read afterwards (shared read-only
     data, the paper's §2.2.3 category).  Layout: one 8-counter row per
     ordered triple (i,j,k) with i<=j<=k; pairs and singles use repeated
     indices. *)
  let nv = p.nvars in
  let triple_index i j k = ((((i * nv) + j) * nv) + k) * 8 in
  let adtree = Alloc.alloc arena (nv * nv * nv * 8) in
  for r = 0 to p.nrecords - 1 do
    let word = Memory.get mem (data + r) in
    let bit x = (word lsr x) land 1 in
    for i = 0 to nv - 1 do
      for j = i to nv - 1 do
        for k = j to nv - 1 do
          let combo = bit i lor (bit j lsl 1) lor (bit k lsl 2) in
          let cell = adtree + triple_index i j k + combo in
          Memory.set mem cell (Memory.get mem cell + 1)
        done
      done
    done
  done;
  let read_adtree tx cell =
    match tx with
    | Some tx -> Txn.read_at ~site:site_data_r tx cell
    | None -> Memory.get mem cell
  in
  (* Joint counts of (var=xv, parents=combo bits) from the adtree row of
     the sorted variable set. *)
  let score_with tx acc qv =
    let nq = Tvector.size acc qv in
    let nparents = nq - 1 in
    let ncombos = 1 lsl nparents in
    (* Sorted query set with positions remembered. *)
    let vars = Array.init nq (fun k -> Tvector.at acc qv k) in
    let order = Array.init nq Fun.id in
    Array.sort (fun a b -> compare vars.(a) vars.(b)) order;
    let sorted = Array.map (fun k -> vars.(k)) order in
    let pos_of k =
      (* Position of original slot k in the sorted triple. *)
      let rec find idx = if order.(idx) = k then idx else find (idx + 1) in
      find 0
    in
    let i0 = sorted.(0) in
    let j0 = if nq > 1 then sorted.(1) else sorted.(0) in
    let k0 = if nq > 2 then sorted.(2) else sorted.(min 1 (nq - 1)) in
    let row = adtree + triple_index i0 j0 k0 in
    let count combo xv =
      (* Map (var value, parent combo) onto the sorted row's bit layout. *)
      let value_of_slot k =
        if k = 0 then xv else (combo lsr (k - 1)) land 1
      in
      let cbits = ref 0 in
      for k = 0 to nq - 1 do
        let p_sorted = pos_of k in
        if value_of_slot k = 1 then cbits := !cbits lor (1 lsl p_sorted)
      done;
      (* Unused higher positions mirror the last real one. *)
      let full = ref 0 in
      (match nq with
      | 1 ->
          let b0 = !cbits land 1 in
          full := b0 lor (b0 lsl 1) lor (b0 lsl 2)
      | 2 ->
          let b0 = !cbits land 1 and b1 = (!cbits lsr 1) land 1 in
          full := b0 lor (b1 lsl 1) lor (b1 lsl 2)
      | _ -> full := !cbits);
      read_adtree tx (row + !full)
    in
    let counts = Array.make (ncombos * 2) 0 in
    for combo = 0 to ncombos - 1 do
      counts.(combo * 2) <- count combo 0;
      counts.((combo * 2) + 1) <- count combo 1
    done;
    let ll = ref 0 in
    for combo = 0 to ncombos - 1 do
      let c0 = counts.(combo * 2) and c1 = counts.((combo * 2) + 1) in
      let tot = c0 + c1 in
      if tot > 0 then begin
        let smooth c =
          Fixed.div (Fixed.of_int (c + 1)) (Fixed.of_int (tot + 2))
        in
        if c0 > 0 then ll := !ll + (c0 * Fixed.to_int (Fixed.mul (Fixed.of_int 1000) (Fixed.log (smooth c0))));
        if c1 > 0 then ll := !ll + (c1 * Fixed.to_int (Fixed.mul (Fixed.of_int 1000) (Fixed.log (smooth c1))))
      end
    done;
    !ll
  in
  (* Build a query vector (inside the txn when [tx] given) holding
     [var :: parents-of-var] and optionally an extra candidate parent. *)
  let build_query tx acc var ~extra =
    let qv = Tvector.create acc ~capacity:(p.max_parents + 2) () in
    Tvector.push_back acc qv var;
    let plist =
      match tx with
      | Some tx -> Txn.read_at ~site:site_parents_r tx (parents + var)
      | None -> Memory.get mem (parents + var)
    in
    (match tx with
    | Some tx ->
        let it = Txn.alloca tx Tlist.iter_words in
        Tlist.iter_reset acc ~iter:it plist;
        while Tlist.iter_has_next acc ~iter:it do
          let pid, _ = Tlist.iter_next acc ~iter:it in
          Tvector.push_back acc qv pid
        done
    | None ->
        Tlist.fold acc plist ~init:() ~f:(fun () pid _ ->
            Tvector.push_back acc qv pid));
    (match extra with Some pid -> Tvector.push_back acc qv pid | None -> ());
    qv
  in
  let parent_count acc var =
    Tlist.size acc (acc.Access.read ~site:site_parents_r (parents + var))
  in
  let has_parent acc var pid =
    Tlist.contains acc (acc.Access.read ~site:site_parents_r (parents + var)) pid
  in
  (* Does adding edge pid -> var close a cycle?  I.e. is var an ancestor
     of pid? *)
  let creates_cycle acc var pid =
    let rec ancestor seen node =
      if node = var then true
      else if List.mem node seen then false
      else
        let plist = acc.Access.read ~site:site_parents_r (parents + node) in
        Tlist.fold acc plist ~init:false ~f:(fun found q _ ->
            found || ancestor (node :: seen) q)
    in
    ancestor [] pid
  in
  let work_of tx c =
    match tx with Some tx -> Txn.tx_work tx c | None -> ()
  in
  (* Best insertion for [var] under the current net: returns gain and
     parent (native-local result, computed transactionally). *)
  let best_insertion tx acc var =
    let qv = build_query tx acc var ~extra:None in
    let base = score_with tx acc qv in
    work_of tx (p.nrecords * 2);
    let best_gain = ref 0 and best_pid = ref (-1) in
    for pid = 0 to p.nvars - 1 do
      if pid <> var && not (has_parent acc var pid) then begin
        if not (creates_cycle acc var pid) then begin
          let qv' = build_query tx acc var ~extra:(Some pid) in
          let s = score_with tx acc qv' in
          work_of tx (p.nrecords * 2);
          let gain = s - base in
          if gain > !best_gain then begin
            best_gain := gain;
            best_pid := pid
          end;
          Tvector.destroy acc qv'
        end
      end
    done;
    Tvector.destroy acc qv;
    (!best_gain, !best_pid)
  in
  let push_task acc tx var gain pid =
    let t = Txn.alloc tx task_words in
    Txn.write_at ~site:site_task_init_var tx (t + t_var) var;
    Txn.write_at ~site:site_task_init_parent tx (t + t_parent) pid;
    Txn.write_at ~site:site_task_init_gain tx (t + t_gain) gain;
    Theap.insert acc heap_cmp work t;
    Txn.write_at ~site:site_pending_w tx pending
      (Txn.read_for_write_at ~site:site_pending_r tx pending + 1)
  in
  let body th =
    let tid = Txn.thread_id th in
    (* Phase 1: initial best-insertion task per var. *)
    for var = 0 to p.nvars - 1 do
      if var mod nthreads = tid then
        Txn.atomic th (fun tx ->
            let acc = Access.of_tx tx in
            let gain, pid = best_insertion (Some tx) acc var in
            if gain > 0 && pid >= 0 then push_task acc tx var gain pid)
    done;
    Sync.wait barrier th ();
    (* Phase 2: consume tasks. *)
    let continue = ref true in
    while !continue do
      (* STAMP structure: a short transaction grabs the task; a second,
         longer transaction re-validates and applies it. *)
      let grabbed =
        Txn.atomic th (fun tx ->
            let acc = Access.of_tx tx in
            match Theap.pop acc heap_cmp work with
            | None -> None
            | Some task ->
                let var = Txn.read_at ~site:site_task_var_r tx (task + t_var) in
                let pid =
                  Txn.read_at ~site:site_task_parent_r tx (task + t_parent)
                in
                Txn.free tx task;
                Some (var, pid))
      in
      match grabbed with
      | None ->
          if Txn.raw_read th pending = 0 then continue := false
          else begin
            Txn.work th 40;
            Txn.yield_hint th
          end
      | Some (var, pid) ->
          Txn.atomic th (fun tx ->
              let acc = Access.of_tx tx in
              Txn.write_at ~site:site_pending_w tx pending
                (Txn.read_for_write_at ~site:site_pending_r tx pending - 1);
              if
                parent_count acc var < p.max_parents
                && (not (has_parent acc var pid))
                && not (creates_cycle acc var pid)
              then begin
                (* Re-validate the gain under the current net. *)
                let qv = build_query (Some tx) acc var ~extra:None in
                let base = score_with (Some tx) acc qv in
                let qv' = build_query (Some tx) acc var ~extra:(Some pid) in
                let s = score_with (Some tx) acc qv' in
                Tvector.destroy acc qv;
                Tvector.destroy acc qv';
                Txn.work th (p.nrecords * 4);
                if s - base > 0 then begin
                  let plist =
                    Txn.read_at ~site:site_parents_r tx (parents + var)
                  in
                  ignore (Tlist.insert acc plist ~key:pid ~value:1 : bool);
                  (* Queue the next improvement for this var. *)
                  if parent_count acc var < p.max_parents then begin
                    let gain, next_pid = best_insertion (Some tx) acc var in
                    if gain > 0 && next_pid >= 0 then
                      push_task acc tx var gain next_pid
                  end
                end
              end)
    done
  in
  let empty_score =
    (* Computed before any learning, serially. *)
    lazy
      (let reader = Engine.setup_thread world in
       let acc = Access.raw reader in
       let total = ref 0 in
       for var = 0 to p.nvars - 1 do
         let qv = build_query None acc var ~extra:None in
         total := !total + score_with None acc qv
       done;
       !total)
  in
  let baseline = Lazy.force empty_score in
  let verify () =
    let reader = Engine.setup_thread world in
    let acc = Access.raw reader in
    (* Parent bounds. *)
    let rec check_bounds var =
      if var >= p.nvars then Ok ()
      else if parent_count acc var > p.max_parents then
        Error (Printf.sprintf "var %d has too many parents" var)
      else check_bounds (var + 1)
    in
    match check_bounds 0 with
    | Error _ as e -> e
    | Ok () ->
        (* Acyclicity via DFS colouring. *)
        let color = Array.make p.nvars 0 in
        let cyclic = ref false in
        let rec dfs node =
          if color.(node) = 1 then cyclic := true
          else if color.(node) = 0 then begin
            color.(node) <- 1;
            let plist =
              acc.Access.read ~site:Site.anonymous_read (parents + node)
            in
            Tlist.fold acc plist ~init:() ~f:(fun () pid _ ->
                if not !cyclic then dfs pid);
            color.(node) <- 2
          end
        in
        for var = 0 to p.nvars - 1 do
          dfs var
        done;
        if !cyclic then Error "learned network is cyclic"
        else begin
          let final = ref 0 in
          for var = 0 to p.nvars - 1 do
            let qv = build_query None acc var ~extra:None in
            final := !final + score_with None acc qv
          done;
          if !final < baseline then
            Error
              (Printf.sprintf "score regressed: %d < empty %d" !final baseline)
          else Ok ()
        end
  in
  { App.world; body; verify }

let model =
  lazy
    {
      globals =
        [
          { gname = "bayes_data"; gwords = 64; ginit = None };
          { gname = "bayes_parents"; gwords = 16; ginit = None };
          { gname = "bayes_work"; gwords = 3; ginit = None };
        ];
      funcs =
        Model_lib.funcs
        @ [
            (* Build the query vector inside the transaction: Figure 1(b). *)
            {
              name = "bayes_build_query";
              params = [ "var" ];
              body =
                [
                  Call
                    { dst = Some "qv"; func = "vector_create"; args = [ i 4 ] };
                  Call
                    {
                      dst = None;
                      func = "vector_push";
                      args = [ v "qv"; v "var" ];
                    };
                  load ~site:"bayes.parents_r" "plist"
                    (Global "bayes_parents" +: v "var");
                  (* Iterate the parent list through a stack cursor. *)
                  Alloca { dst = "it"; words = 1; label = "bayes.iter" };
                  load ~site:"list.header.first_r" "f" (v "plist");
                  store ~manual:false ~site:"list.iter.write" (v "it") (v "f");
                  load ~manual:false ~site:"list.iter.read" "node" (v "it");
                  While
                    ( v "node" <>: i 0,
                      [
                        load ~site:"list.traverse.key" "pid" (v "node");
                        Call
                          {
                            dst = None;
                            func = "vector_push";
                            args = [ v "qv"; v "pid" ];
                          };
                        load ~site:"list.traverse.next" "nxt" (v "node" +: i 2);
                        store ~manual:false ~site:"list.iter.write" (v "it")
                          (v "nxt");
                        load ~manual:false ~site:"list.iter.read" "node"
                          (v "it");
                      ] );
                  Return (v "qv");
                ];
            };
            (* Score: read the captured query vector and the shared
               read-only records. *)
            {
              name = "bayes_score";
              params = [ "qv"; "nrecords" ];
              body =
                [
                  load ~site:"vector.size_r" "nq" (v "qv");
                  load ~site:"vector.data_r" "qd" (v "qv" +: i 2);
                  Let ("ll", i 0);
                  Let ("r", i 0);
                  While
                    ( v "r" <: v "nrecords",
                      [
                        load ~manual:false ~site:"bayes.data_r" "word"
                          (Global "bayes_data" +: v "r");
                        Let ("k", i 0);
                        While
                          ( v "k" <: v "nq",
                            [
                              load ~site:"vector.slot_r" "pid" (v "qd" +: v "k");
                              Let ("ll", v "ll" +: v "word" +: v "pid");
                              Let ("k", v "k" +: i 1);
                            ] );
                        Let ("r", v "r" +: i 1);
                      ] );
                  Return (v "ll");
                ];
            };
            {
              name = "bayes_apply_task";
              params = [ "nrecords" ];
              body =
                [
                  Atomic
                    [
                      Call
                        { dst = Some "task"; func = "heap_pop"; args = [ Global "bayes_work" ] };
                      If
                        ( v "task" <>: i 0,
                          [
                            load ~site:"bayes.task.var_r" "var" (v "task");
                            load ~site:"bayes.task.parent_r" "pid"
                              (v "task" +: i 1);
                            load ~site:"bayes.task.gain_r" "gain"
                              (v "task" +: i 2);
                            Free (v "task");
                            Call
                              {
                                dst = Some "qv";
                                func = "bayes_build_query";
                                args = [ v "var" ];
                              };
                            Call
                              {
                                dst = Some "s";
                                func = "bayes_score";
                                args = [ v "qv"; v "nrecords" ];
                              };
                            Free (v "qv");
                            If
                              ( v "s" >: i 0,
                                [
                                  load ~site:"bayes.parents_r" "plist"
                                    (Global "bayes_parents" +: v "var");
                                  Call
                                    {
                                      dst = None;
                                      func = "list_insert";
                                      args = [ v "plist"; v "pid"; i 1 ];
                                    };
                                  Malloc
                                    { dst = "t2"; words = i 3; label = "bayes.task" };
                                  store ~manual:false
                                    ~site:"bayes.task_init.var" (v "t2")
                                    (v "var");
                                  store ~manual:false
                                    ~site:"bayes.task_init.parent"
                                    (v "t2" +: i 1) (v "pid");
                                  store ~manual:false
                                    ~site:"bayes.task_init.gain"
                                    (v "t2" +: i 2) (v "gain");
                                  Call
                                    {
                                      dst = None;
                                      func = "heap_insert";
                                      args = [ Global "bayes_work"; v "t2" ];
                                    };
                                ],
                                [] );
                          ],
                          [] );
                    ];
                  Return (i 0);
                ];
            };
          ];
    }

let app =
  {
    App.name = "bayes";
    description = "Bayesian network structure learning";
    prepare;
    model;
  }
