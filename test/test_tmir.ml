open Captured_tmir
open Ir
module Txn = Captured_stm.Txn
module Config = Captured_stm.Config
module Engine = Captured_stm.Engine
module Stats = Captured_stm.Stats
module Site = Captured_core.Site
module Memory = Captured_tmem.Memory

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let func name params body = { name; params; body }
let program ?(globals = []) funcs = { globals; funcs }

let is_captured result site =
  List.exists
    (fun v -> v.Capture_analysis.site = site && v.Capture_analysis.captured)
    (Capture_analysis.verdicts result)

let is_shared result site =
  List.exists
    (fun v -> v.Capture_analysis.site = site && v.Capture_analysis.shared)
    (Capture_analysis.verdicts result)

(* ------------------------------------------------------------------ *)
(* Analysis verdicts on hand-written programs                          *)

let test_malloc_in_atomic_captured () =
  let p =
    program
      [
        func "f" []
          [
            Atomic
              [
                Malloc { dst = "p"; words = i 4; label = "m1" };
                store ~site:"t.init" (v "p") (i 1);
                load ~site:"t.back" "x" (v "p");
              ];
            Return (i 0);
          ];
      ]
  in
  let r = Capture_analysis.analyze p in
  check "store captured" true (is_captured r "t.init");
  check "load captured" true (is_captured r "t.back")

let test_global_not_captured () =
  let p =
    program
      ~globals:[ { gname = "g"; gwords = 4; ginit = None } ]
      [
        func "f" []
          [ Atomic [ store ~site:"t.glob" (Global "g") (i 1) ]; Return (i 0) ];
      ]
  in
  check "global shared" false
    (is_captured (Capture_analysis.analyze p) "t.glob")

let test_param_not_captured () =
  let p =
    program
      [
        func "f" [ "q" ]
          [ Atomic [ store ~site:"t.param" (v "q") (i 1) ]; Return (i 0) ];
      ]
  in
  check "param shared" false
    (is_captured (Capture_analysis.analyze p) "t.param")

let test_malloc_before_atomic_not_captured () =
  let p =
    program
      [
        func "f" []
          [
            Malloc { dst = "p"; words = i 4; label = "m1" };
            Atomic [ store ~site:"t.pre" (v "p") (i 1) ];
            Return (i 0);
          ];
      ]
  in
  check "pre-txn alloc shared" false
    (is_captured (Capture_analysis.analyze p) "t.pre")

let test_alloca_inside_vs_outside () =
  let p =
    program
      [
        func "f" []
          [
            Alloca { dst = "out"; words = 2; label = "a0" };
            Atomic
              [
                Alloca { dst = "inn"; words = 2; label = "a1" };
                store ~site:"t.stack_in" (v "inn") (i 1);
                store ~site:"t.stack_out" (v "out") (i 1);
              ];
            Return (i 0);
          ];
      ]
  in
  let r = Capture_analysis.analyze p in
  check "inner alloca captured" true (is_captured r "t.stack_in");
  check "outer alloca shared" false (is_captured r "t.stack_out")

let test_pointer_arith_keeps_capture () =
  let p =
    program
      [
        func "f" []
          [
            Atomic
              [
                Malloc { dst = "p"; words = i 8; label = "m1" };
                store ~site:"t.field" (v "p" +: i 3) (i 7);
              ];
            Return (i 0);
          ];
      ]
  in
  check "field store captured" true
    (is_captured (Capture_analysis.analyze p) "t.field")

let test_inlined_helper_captured () =
  let p =
    program
      [
        func "init_node" [ "n" ]
          [ store ~manual:false ~site:"t.helper_store" (v "n") (i 5);
            Return (i 0) ];
        func "f" []
          [
            Atomic
              [
                Malloc { dst = "p"; words = i 4; label = "m1" };
                Call { dst = None; func = "init_node"; args = [ v "p" ] };
              ];
            Return (i 0);
          ];
      ]
  in
  check "inlined store captured" true
    (is_captured (Capture_analysis.analyze p) "t.helper_store")

let test_helper_two_contexts_conjunction () =
  (* Same helper called with a captured pointer and with a global: the
     shared context must kill the verdict. *)
  let p =
    program
      ~globals:[ { gname = "g"; gwords = 4; ginit = None } ]
      [
        func "poke" [ "n" ]
          [ store ~manual:false ~site:"t.poke" (v "n") (i 5); Return (i 0) ];
        func "f" []
          [
            Atomic
              [
                Malloc { dst = "p"; words = i 4; label = "m1" };
                Call { dst = None; func = "poke"; args = [ v "p" ] };
                Call { dst = None; func = "poke"; args = [ Global "g" ] };
              ];
            Return (i 0);
          ];
      ]
  in
  check "conjunction over contexts" false
    (is_captured (Capture_analysis.analyze p) "t.poke")

let test_loop_carried_pointer_across_txns () =
  (* malloc inside an atomic that sits inside a loop: iteration k+1's
     transaction sees iteration k's allocation as NOT captured. *)
  let p =
    program
      [
        func "f" []
          [
            Let ("c", i 3);
            Let ("p", i 0);
            While
              ( v "c" >: i 0,
                [
                  Atomic
                    [
                      store ~manual:false ~site:"t.carried" (v "p" +: i 0) (i 1);
                      Malloc { dst = "p"; words = i 4; label = "m1" };
                      store ~manual:false ~site:"t.fresh" (v "p") (i 2);
                    ];
                  Let ("c", v "c" -: i 1);
                ] );
            Return (i 0);
          ];
      ]
  in
  let r = Capture_analysis.analyze p in
  check "carried pointer shared" false (is_captured r "t.carried");
  check "fresh pointer captured" true (is_captured r "t.fresh")

let test_loop_inside_atomic_captured () =
  let p =
    program
      [
        func "f" []
          [
            Atomic
              [
                Let ("c", i 3);
                Let ("p", i 0);
                While
                  ( v "c" >: i 0,
                    [
                      Malloc { dst = "p"; words = i 4; label = "m1" };
                      store ~manual:false ~site:"t.inloop" (v "p") (i 1);
                      Let ("c", v "c" -: i 1);
                    ] );
              ];
            Return (i 0);
          ];
      ]
  in
  check "loop alloc captured" true
    (is_captured (Capture_analysis.analyze p) "t.inloop")

let test_if_join_conservative () =
  let p =
    program
      [
        func "f" [ "q"; "cond" ]
          [
            Atomic
              [
                If
                  ( v "cond",
                    [ Malloc { dst = "p"; words = i 4; label = "m1" } ],
                    [ Let ("p", v "q") ] );
                store ~manual:false ~site:"t.join" (v "p") (i 1);
              ];
            Return (i 0);
          ];
      ]
  in
  check "join conservative" false
    (is_captured (Capture_analysis.analyze p) "t.join")

let test_freed_label_poisoned () =
  let p =
    program
      [
        func "f" []
          [
            Atomic
              [
                Malloc { dst = "p"; words = i 4; label = "m1" };
                Free (v "p");
                Malloc { dst = "q"; words = i 4; label = "m1" };
                store ~manual:false ~site:"t.after_free" (v "q") (i 1);
              ];
            Return (i 0);
          ];
      ]
  in
  (* Same label freed: conservative analysis refuses to elide. *)
  check "freed label poisoned" false
    (is_captured (Capture_analysis.analyze p) "t.after_free")

let test_recursion_poisons () =
  let p =
    program
      [
        func "rec_store" [ "n"; "d" ]
          [
            store ~manual:false ~site:"t.rec" (v "n") (i 1);
            If
              ( v "d" >: i 0,
                [
                  Call
                    {
                      dst = None;
                      func = "rec_store";
                      args = [ v "n"; v "d" -: i 1 ];
                    };
                ],
                [] );
            Return (i 0);
          ];
        func "f" []
          [
            Atomic
              [
                Malloc { dst = "p"; words = i 4; label = "m1" };
                Call { dst = None; func = "rec_store"; args = [ v "p"; i 3 ] };
              ];
            Return (i 0);
          ];
      ]
  in
  check "recursive callee poisoned" false
    (is_captured (Capture_analysis.analyze ~inline_depth:2 p) "t.rec")

let test_nested_atomic_relative_capture () =
  let p =
    program
      [
        func "f" []
          [
            Atomic
              [
                Malloc { dst = "p"; words = i 4; label = "m1" };
                store ~manual:false ~site:"t.outer_own" (v "p") (i 1);
                Atomic
                  [
                    store ~manual:false ~site:"t.inner_on_outer" (v "p") (i 2);
                    Malloc { dst = "q"; words = i 4; label = "m2" };
                    store ~manual:false ~site:"t.inner_own" (v "q") (i 3);
                  ];
                store ~manual:false ~site:"t.outer_after" (v "q") (i 4);
              ];
            Return (i 0);
          ];
      ]
  in
  let r = Capture_analysis.analyze p in
  check "outer own captured" true (is_captured r "t.outer_own");
  check "inner sees outer alloc as shared" false
    (is_captured r "t.inner_on_outer");
  check "inner own captured" true (is_captured r "t.inner_own");
  check "outer sees committed child alloc as captured" true
    (is_captured r "t.outer_after")

let test_returned_pointer_inlined () =
  (* The Figure 1(a)/(b) shape: an allocation helper returning fresh
     memory used by the caller's transaction. *)
  let p =
    program
      [
        func "vector_alloc" []
          [ Malloc { dst = "r"; words = i 6; label = "vec" }; Return (v "r") ];
        func "f" []
          [
            Atomic
              [
                Call { dst = Some "q"; func = "vector_alloc"; args = [] };
                store ~manual:false ~site:"t.retptr" (v "q" +: i 1) (i 9);
              ];
            Return (i 0);
          ];
      ]
  in
  check "returned fresh pointer captured" true
    (is_captured (Capture_analysis.analyze p) "t.retptr")

let test_load_result_unknown () =
  let p =
    program
      [
        func "f" []
          [
            Atomic
              [
                Malloc { dst = "p"; words = i 4; label = "m1" };
                store ~manual:false ~site:"t.store_ptr" (v "p") (v "p");
                load ~manual:false ~site:"t.load_ptr" "q" (v "p");
                store ~manual:false ~site:"t.through_loaded" (v "q") (i 1);
              ];
            Return (i 0);
          ];
      ]
  in
  let r = Capture_analysis.analyze p in
  check "direct captured" true (is_captured r "t.store_ptr");
  check "loaded pointer conservative" false
    (is_captured r "t.through_loaded")

(* ------------------------------------------------------------------ *)
(* IR utilities                                                         *)

let test_ir_sites_dedup_and_order () =
  let p =
    program
      [
        func "f" []
          [
            Atomic
              [
                store ~site:"u.a" (i 5) (i 1);
                load ~manual:false ~site:"u.b" "x" (i 5);
                store ~site:"u.a" (i 6) (i 2);
              ];
            Return (i 0);
          ];
      ]
  in
  Alcotest.(check (list (pair string bool)))
    "deduped in order"
    [ ("u.a", true); ("u.b", false) ]
    (Ir.sites p)

let test_ir_sites_inconsistent_manual_rejected () =
  let p =
    program
      [
        func "f" []
          [
            store ~manual:true ~site:"u.c" (i 5) (i 1);
            store ~manual:false ~site:"u.c" (i 6) (i 2);
            Return (i 0);
          ];
      ]
  in
  check "invalid" true
    (match Ir.validate p with Error _ -> true | Ok () -> false)

let test_ir_atomic_sites () =
  let p =
    program
      [
        func "f" []
          [
            store ~site:"u.outside" (i 5) (i 1);
            Atomic [ store ~site:"u.inside" (i 6) (i 2) ];
            Return (i 0);
          ];
      ]
  in
  Alcotest.(check (list string)) "only atomic" [ "u.inside" ] (Ir.atomic_sites p)

let test_ir_validate_duplicate_function () =
  let p = program [ func "f" [] [ Return (i 0) ]; func "f" [] [ Return (i 1) ] ] in
  check "dup rejected" true
    (match Ir.validate p with Error _ -> true | Ok () -> false)

let test_interp_division_by_zero () =
  let p = program [ func "f" [ "x" ] [ Return (i 10 /: v "x") ] ] in
  let w = Engine.create ~nthreads:1 Config.baseline in
  let th = Engine.setup_thread w in
  let genv =
    Interp.load p ~arena:(Engine.global_arena w) ~memory:(Engine.memory w)
  in
  check_int "10/2" 5 (Interp.call genv th "f" [ 2 ]);
  check "div by zero" true
    (try
       ignore (Interp.call genv th "f" [ 0 ] : int);
       false
     with Interp.Runtime_error _ -> true)

let test_interp_global_init () =
  let p =
    program
      ~globals:[ { gname = "tbl"; gwords = 3; ginit = Some [| 7; 8; 9 |] } ]
      [
        func "f" []
          [ load ~site:"u.gi" "x" (Global "tbl" +: i 1); Return (v "x") ];
      ]
  in
  let w = Engine.create ~nthreads:1 Config.baseline in
  let th = Engine.setup_thread w in
  let genv =
    Interp.load p ~arena:(Engine.global_arena w) ~memory:(Engine.memory w)
  in
  check_int "initialised" 8 (Interp.call genv th "f" [])

(* ------------------------------------------------------------------ *)
(* Definitely-shared verdicts (the paper's future-work hybrid)          *)

let test_shared_verdict_global () =
  let p =
    program
      ~globals:[ { gname = "g"; gwords = 4; ginit = None } ]
      [
        func "f" []
          [ Atomic [ store ~site:"sv.glob" (Global "g" +: i 2) (i 1) ]; Return (i 0) ];
      ]
  in
  let r = Capture_analysis.analyze p in
  check "definitely shared" true (is_shared r "sv.glob");
  check "not captured" false (is_captured r "sv.glob")

let test_shared_verdict_param_with_driver () =
  (* Entry-point analysis sees Unknown, but one provably-global visit
     suffices for the (always-safe) shared hint. *)
  let p =
    program
      ~globals:[ { gname = "g"; gwords = 8; ginit = None } ]
      [
        func "poke" [ "k" ]
          [
            Atomic [ store ~site:"sv.indexed" (Global "g" +: v "k") (i 1) ];
            Return (i 0);
          ];
        func "driver" []
          [ Call { dst = None; func = "poke"; args = [ i 3 ] }; Return (i 0) ];
      ]
  in
  check "shared via driver" true
    (is_shared (Capture_analysis.analyze p) "sv.indexed")

let test_shared_verdict_never_for_captured () =
  let p =
    program
      [
        func "f" []
          [
            Atomic
              [
                Malloc { dst = "p"; words = i 4; label = "m1" };
                store ~manual:false ~site:"sv.cap" (v "p") (i 1);
              ];
            Return (i 0);
          ];
      ]
  in
  let r = Capture_analysis.analyze p in
  check "captured" true (is_captured r "sv.cap");
  check "not shared" false (is_shared r "sv.cap")

let test_shared_verdict_mixed_contexts () =
  (* Shared in one context, captured in another: neither verdict may be
     used (shared would pessimise the captured context; captured would be
     unsound). *)
  let p =
    program
      ~globals:[ { gname = "g"; gwords = 4; ginit = None } ]
      [
        func "poke" [ "q" ]
          [ store ~manual:false ~site:"sv.mixed" (v "q") (i 1); Return (i 0) ];
        func "f" []
          [
            Atomic
              [
                Malloc { dst = "p"; words = i 4; label = "m1" };
                Call { dst = None; func = "poke"; args = [ v "p" ] };
                Call { dst = None; func = "poke"; args = [ Global "g" ] };
              ];
            Return (i 0);
          ];
      ]
  in
  let r = Capture_analysis.analyze p in
  check "not captured" false (is_captured r "sv.mixed");
  check "not shared either" false (is_shared r "sv.mixed")

(* ------------------------------------------------------------------ *)
(* Interpreter semantics                                               *)

let mk_env () =
  let w = Engine.create ~nthreads:1 Config.baseline in
  let th = Engine.setup_thread w in
  (w, th)

let run_program ?(config = Config.baseline) p fname args =
  let w = Engine.create ~nthreads:1 config in
  let th = Engine.setup_thread w in
  let genv =
    Interp.load p ~arena:(Engine.global_arena w) ~memory:(Engine.memory w)
  in
  (Interp.call genv th fname args, w, th, genv)

let test_interp_arith () =
  let p =
    program
      [
        func "poly" [ "x" ] [ Return ((v "x" *: v "x") +: (i 3 *: v "x") +: i 1) ];
      ]
  in
  let r, _, _, _ = run_program p "poly" [ 5 ] in
  check_int "5^2+15+1" 41 r

let test_interp_loop_call () =
  let p =
    program
      [
        func "double" [ "x" ] [ Return (v "x" *: i 2) ];
        func "f" [ "n" ]
          [
            Let ("acc", i 0);
            Let ("k", v "n");
            While
              ( v "k" >: i 0,
                [
                  Call { dst = Some "d"; func = "double"; args = [ v "k" ] };
                  Let ("acc", v "acc" +: v "d");
                  Let ("k", v "k" -: i 1);
                ] );
            Return (v "acc");
          ];
      ]
  in
  let r, _, _, _ = run_program p "f" [ 10 ] in
  check_int "2*sum(1..10)" 110 r

let test_interp_atomic_commit () =
  let p =
    program
      ~globals:[ { gname = "cell"; gwords = 1; ginit = Some [| 5 |] } ]
      [
        func "bump" []
          [
            Atomic
              [
                load ~site:"q.r" "x" (Global "cell");
                store ~site:"q.w" (Global "cell") (v "x" +: i 1);
              ];
            load ~site:"q.r2" "y" (Global "cell");
            Return (v "y");
          ];
      ]
  in
  let r, _, _, _ = run_program p "bump" [] in
  check_int "committed" 6 r

let test_interp_abort_rolls_back () =
  let p =
    program
      ~globals:[ { gname = "cell"; gwords = 1; ginit = Some [| 5 |] } ]
      [
        func "f" []
          [
            Atomic [ store ~site:"q.w1" (Global "cell") (i 99); Abort ];
            load ~site:"q.r3" "y" (Global "cell");
            Return (v "y");
          ];
      ]
  in
  let r, _, _, _ = run_program p "f" [] in
  check_int "rolled back" 5 r

let test_interp_local_rollback_on_abort () =
  let p =
    program
      ~globals:[ { gname = "cell"; gwords = 1; ginit = Some [| 0 |] } ]
      [
        func "f" []
          [
            Let ("x", i 10);
            Atomic [ Let ("x", v "x" +: i 1); Abort ];
            Return (v "x");
          ];
      ]
  in
  let r, _, _, _ = run_program p "f" [] in
  check_int "locals restored" 10 r

let test_interp_nested_partial_abort () =
  let p =
    program
      ~globals:[ { gname = "g"; gwords = 2; ginit = Some [| 1; 2 |] } ]
      [
        func "f" []
          [
            Atomic
              [
                store ~site:"n.w1" (Global "g") (i 10);
                Atomic [ store ~site:"n.w2" (Global "g" +: i 1) (i 20); Abort ];
                load ~site:"n.r1" "a" (Global "g");
                load ~site:"n.r2" "b" (Global "g" +: i 1);
              ];
            Return ((v "a" *: i 100) +: v "b");
          ];
      ]
  in
  let r, _, _, _ = run_program p "f" [] in
  check_int "outer kept, inner undone" 1002 r

let test_interp_malloc_linked_list () =
  let p =
    program
      ~globals:[ { gname = "head"; gwords = 1; ginit = Some [| 0 |] } ]
      [
        func "push" [ "val" ]
          [
            Atomic
              [
                Malloc { dst = "n"; words = i 2; label = "node" };
                store ~manual:false ~site:"l.val" (v "n") (v "val");
                load ~site:"l.head_r" "h" (Global "head");
                store ~manual:false ~site:"l.next" (v "n" +: i 1) (v "h");
                store ~site:"l.head_w" (Global "head") (v "n");
              ];
            Return (i 0);
          ];
        func "sum" []
          [
            Let ("acc", i 0);
            load ~site:"l.sum_h" "p" (Global "head");
            While
              ( v "p" <>: i 0,
                [
                  load ~site:"l.sum_v" "x" (v "p");
                  Let ("acc", v "acc" +: v "x");
                  load ~site:"l.sum_n" "p" (v "p" +: i 1);
                ] );
            Return (v "acc");
          ];
        func "main" []
          [
            Let ("k", i 10);
            While
              ( v "k" >: i 0,
                [
                  Call { dst = None; func = "push"; args = [ v "k" ] };
                  Let ("k", v "k" -: i 1);
                ] );
            Call { dst = Some "s"; func = "sum"; args = [] };
            Return (v "s");
          ];
      ]
  in
  let r, _, _, _ = run_program p "main" [] in
  check_int "sum 1..10" 55 r

let test_interp_validate_rejects_bad_program () =
  let bad =
    program [ func "f" [] [ Return (i 1); Let ("x", i 2); Return (v "x") ] ]
  in
  let w, th = mk_env () in
  ignore th;
  check "validation fails" true
    (try
       ignore
         (Interp.load bad ~arena:(Engine.global_arena w)
            ~memory:(Engine.memory w));
       false
     with Interp.Runtime_error _ -> true)

(* ------------------------------------------------------------------ *)
(* End-to-end: compiler verdicts elide barriers and preserve semantics  *)

let list_program =
  program
    ~globals:[ { gname = "head2"; gwords = 1; ginit = Some [| 0 |] } ]
    [
      func "push2" [ "val" ]
        [
          Atomic
            [
              Malloc { dst = "n"; words = i 2; label = "node2" };
              store ~manual:false ~site:"l2.val" (v "n") (v "val");
              load ~site:"l2.head_r" "h" (Global "head2");
              store ~manual:false ~site:"l2.next" (v "n" +: i 1) (v "h");
              store ~site:"l2.head_w" (Global "head2") (v "n");
            ];
          Return (i 0);
        ];
      func "main2" [ "k" ]
        [
          While
            ( v "k" >: i 0,
              [
                Call { dst = None; func = "push2"; args = [ v "k" ] };
                Let ("k", v "k" -: i 1);
              ] );
          Return (i 0);
        ];
    ]

let test_compiler_elides_ir_sites () =
  Site.reset_verdicts ();
  let r = Capture_analysis.analyze list_program in
  check "node stores captured" true (is_captured r "l2.val");
  check "next captured" true (is_captured r "l2.next");
  check "head not" false (is_captured r "l2.head_w");
  Capture_analysis.apply r;
  let result, _, th, _ =
    run_program ~config:Config.compiler list_program "main2" [ 20 ]
  in
  ignore result;
  let st = Txn.thread_stats th in
  check_int "2 elided writes per push" 40 st.Stats.writes_elided_static;
  Site.reset_verdicts ()

let test_configs_agree_on_memory () =
  let run config =
    Site.reset_verdicts ();
    if config.Config.analysis = Config.Compiler then
      Capture_analysis.apply (Capture_analysis.analyze list_program);
    let _, w, _, genv =
      run_program ~config list_program "main2" [ 15 ]
    in
    let head = Interp.global_addr genv "head2" in
    (* Chase the list, summing. *)
    let m = Engine.memory w in
    let rec go p acc =
      if p = 0 then acc else go (Memory.get m (p + 1)) (acc + Memory.get m p)
    in
    let r = go (Memory.get m head) 0 in
    Site.reset_verdicts ();
    r
  in
  let base = run Config.baseline in
  List.iter
    (fun cfg -> check_int (Config.to_string cfg) base (run cfg))
    [
      Config.runtime Captured_core.Alloc_log.Tree;
      Config.runtime Captured_core.Alloc_log.Array;
      Config.runtime Captured_core.Alloc_log.Filter;
      Config.compiler;
      Config.audit;
    ]

(* ------------------------------------------------------------------ *)
(* Soundness property: analysis verdicts never contradict the precise    *)
(* runtime capture check, on randomly generated programs.               *)

let gen_program seed =
  let g = Captured_util.Prng.create seed in
  let module P = Captured_util.Prng in
  let fresh =
    let n = ref 0 in
    fun prefix ->
      incr n;
      Printf.sprintf "%s%d_%d" prefix seed !n
  in
  let ptr_vars = [| "p0"; "p1"; "p2" |] in
  let any_ptr () = ptr_vars.(P.int g (Array.length ptr_vars)) in
  (* Random statements; [depth] bounds nesting, [in_atomic] tracks whether
     an enclosing Atomic exists (Abort validity). *)
  let rec stmts depth in_atomic budget =
    if budget <= 0 then []
    else
      let s, cost =
        match P.int g (if depth > 0 then 10 else 8) with
        | 0 -> (Malloc { dst = any_ptr (); words = i 8; label = fresh "m" }, 1)
        | 1 -> (Alloca { dst = any_ptr (); words = 4; label = fresh "a" }, 1)
        | 2 ->
            ( store ~manual:false ~site:(fresh "s")
                (v (any_ptr ()) +: i (P.int g 4))
                (i (P.int g 100)),
              1 )
        | 3 ->
            ( load ~manual:false ~site:(fresh "ld") "x"
                (v (any_ptr ()) +: i (P.int g 4)),
              1 )
        | 4 -> (Let (any_ptr (), v (any_ptr ())), 1)
        | 5 -> (store ~manual:false ~site:(fresh "sg") (Global "glob") (i 7), 1)
        | 6 ->
            ( Call
                {
                  dst = (if P.bool g then Some "x" else None);
                  func = "helper";
                  args = [ v (any_ptr ()) ];
                },
              2 )
        | 7 ->
            ( Let ("x", v "x" +: i 1),
              1 )
        | 8 ->
            ( If
                ( v "x" >: i (P.int g 50),
                  stmts (depth - 1) in_atomic (budget / 2),
                  stmts (depth - 1) in_atomic (budget / 2) ),
              3 )
        | _ ->
            if in_atomic then
              (* Nested atomic. *)
              (Atomic (stmts (depth - 1) true (budget / 2)), 3)
            else (Atomic (stmts (depth - 1) true (budget / 2)), 3)
      in
      s :: stmts depth in_atomic (budget - cost)
  in
  let body =
    [
      (* All pointer vars start valid, pointing at the global block. *)
      Let ("p0", Global "glob");
      Let ("p1", Global "glob");
      Let ("p2", Global "glob");
      Let ("x", i 0);
    ]
    @ [ Atomic (stmts 2 true 12) ]
    @ stmts 2 false 10
    @ [ Return (v "x") ]
  in
  program
    ~globals:[ { gname = "glob"; gwords = 16; ginit = None } ]
    [
      func "helper" [ "hp" ]
        [
          store ~manual:false ~site:(fresh "hs") (v "hp" +: i 1) (i 3);
          Return (v "hp");
        ];
      func "main" [] body;
    ]

let prop_analysis_sound =
  QCheck.Test.make ~name:"compiler verdicts sound vs runtime (audit)"
    ~count:150
    QCheck.(int_bound 100000)
    (fun seed ->
      let p = gen_program seed in
      match Ir.validate p with
      | Error _ -> true (* generator bug, not analysis unsoundness *)
      | Ok () ->
          Site.reset_verdicts ();
          let r = Capture_analysis.analyze p in
          Capture_analysis.apply r;
          let _, _, th, _ = run_program ~config:Config.audit p "main" [] in
          let ok =
            (Txn.thread_stats th).Stats.audit_static_violations = 0
          in
          Site.reset_verdicts ();
          ok)

let prop_configs_agree =
  QCheck.Test.make ~name:"all configs produce identical global memory"
    ~count:60
    QCheck.(int_bound 100000)
    (fun seed ->
      let p = gen_program seed in
      match Ir.validate p with
      | Error _ -> true
      | Ok () ->
          let snapshot config =
            Site.reset_verdicts ();
            if config.Config.analysis = Config.Compiler then
              Capture_analysis.apply (Capture_analysis.analyze p);
            let _, w, _, genv = run_program ~config p "main" [] in
            let base = Interp.global_addr genv "glob" in
            let m = Engine.memory w in
            let words = List.init 16 (fun k -> Memory.get m (base + k)) in
            Site.reset_verdicts ();
            words
          in
          let expected = snapshot Config.baseline in
          List.for_all
            (fun cfg -> snapshot cfg = expected)
            [
              Config.runtime Captured_core.Alloc_log.Tree;
              Config.runtime Captured_core.Alloc_log.Array;
              Config.runtime Captured_core.Alloc_log.Filter;
              Config.compiler;
            ])

let qsuite name tests = (name, List.map Qc.to_alcotest tests)

let () =
  Alcotest.run "tmir"
    [
      ( "analysis",
        [
          Alcotest.test_case "malloc in atomic" `Quick
            test_malloc_in_atomic_captured;
          Alcotest.test_case "global" `Quick test_global_not_captured;
          Alcotest.test_case "param" `Quick test_param_not_captured;
          Alcotest.test_case "malloc before atomic" `Quick
            test_malloc_before_atomic_not_captured;
          Alcotest.test_case "alloca in/out" `Quick
            test_alloca_inside_vs_outside;
          Alcotest.test_case "pointer arithmetic" `Quick
            test_pointer_arith_keeps_capture;
          Alcotest.test_case "inlined helper" `Quick
            test_inlined_helper_captured;
          Alcotest.test_case "two contexts conjunction" `Quick
            test_helper_two_contexts_conjunction;
          Alcotest.test_case "loop-carried across txns" `Quick
            test_loop_carried_pointer_across_txns;
          Alcotest.test_case "loop inside atomic" `Quick
            test_loop_inside_atomic_captured;
          Alcotest.test_case "if join" `Quick test_if_join_conservative;
          Alcotest.test_case "freed poisoned" `Quick test_freed_label_poisoned;
          Alcotest.test_case "recursion poisoned" `Quick test_recursion_poisons;
          Alcotest.test_case "nested atomic" `Quick
            test_nested_atomic_relative_capture;
          Alcotest.test_case "returned pointer" `Quick
            test_returned_pointer_inlined;
          Alcotest.test_case "loaded pointer unknown" `Quick
            test_load_result_unknown;
        ] );
      ( "ir-utils",
        [
          Alcotest.test_case "sites dedup" `Quick test_ir_sites_dedup_and_order;
          Alcotest.test_case "manual consistency" `Quick
            test_ir_sites_inconsistent_manual_rejected;
          Alcotest.test_case "atomic sites" `Quick test_ir_atomic_sites;
          Alcotest.test_case "dup function" `Quick
            test_ir_validate_duplicate_function;
          Alcotest.test_case "div by zero" `Quick test_interp_division_by_zero;
          Alcotest.test_case "global init" `Quick test_interp_global_init;
        ] );
      ( "shared-verdicts",
        [
          Alcotest.test_case "global" `Quick test_shared_verdict_global;
          Alcotest.test_case "param via driver" `Quick
            test_shared_verdict_param_with_driver;
          Alcotest.test_case "captured not shared" `Quick
            test_shared_verdict_never_for_captured;
          Alcotest.test_case "mixed contexts" `Quick
            test_shared_verdict_mixed_contexts;
        ] );
      ( "interp",
        [
          Alcotest.test_case "arith" `Quick test_interp_arith;
          Alcotest.test_case "loop+call" `Quick test_interp_loop_call;
          Alcotest.test_case "atomic commit" `Quick test_interp_atomic_commit;
          Alcotest.test_case "abort rolls back" `Quick
            test_interp_abort_rolls_back;
          Alcotest.test_case "locals rollback" `Quick
            test_interp_local_rollback_on_abort;
          Alcotest.test_case "nested partial abort" `Quick
            test_interp_nested_partial_abort;
          Alcotest.test_case "linked list" `Quick
            test_interp_malloc_linked_list;
          Alcotest.test_case "validate" `Quick
            test_interp_validate_rejects_bad_program;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "compiler elides IR sites" `Quick
            test_compiler_elides_ir_sites;
          Alcotest.test_case "configs agree" `Quick
            test_configs_agree_on_memory;
        ] );
      qsuite "soundness" [ prop_analysis_sound; prop_configs_agree ];
    ]
