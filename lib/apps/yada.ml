module Config = Captured_stm.Config
module Engine = Captured_stm.Engine
module Txn = Captured_stm.Txn
module Site = Captured_core.Site
module Memory = Captured_tmem.Memory
module Alloc = Captured_tmem.Alloc
module Prng = Captured_util.Prng
module Access = Captured_tstruct.Access
module Theap = Captured_tstruct.Theap
module Tmap = Captured_tstruct.Tmap
open Captured_tmir.Ir

(* Vertex record: {x, y}.  Element record: {v1, v2, v3, area2, alive}.
   area2 = doubled signed area, always positive (ccw). *)
let v_x = 0
let v_y = 1
let vertex_words = 2
let e_v1 = 0
let e_v2 = 1
let e_v3 = 2
let e_area = 3
let e_alive = 4
let element_words = 5

let site_vertex_x_r =
  Site.declare ~init_only:true ~write:false "yada.vertex.x_r"
let site_vertex_y_r =
  Site.declare ~init_only:true ~write:false "yada.vertex.y_r"
let site_vertex_init_x =
  Site.declare ~manual:false ~write:true "yada.vertex_init.x"
let site_vertex_init_y =
  Site.declare ~manual:false ~write:true "yada.vertex_init.y"
let site_elem_v_r = Site.declare ~init_only:true ~write:false "yada.elem.v_r"
let site_elem_area_r =
  Site.declare ~init_only:true ~write:false "yada.elem.area_r"
let site_elem_alive_r = Site.declare ~write:false "yada.elem.alive_r"
let site_elem_alive_w = Site.declare ~write:true "yada.elem.alive_w"
let site_elem_init_v1 = Site.declare ~manual:false ~write:true "yada.elem_init.v1"
let site_elem_init_v2 = Site.declare ~manual:false ~write:true "yada.elem_init.v2"
let site_elem_init_v3 = Site.declare ~manual:false ~write:true "yada.elem_init.v3"
let site_elem_init_area =
  Site.declare ~manual:false ~write:true "yada.elem_init.area"
let site_elem_init_alive =
  Site.declare ~manual:false ~write:true "yada.elem_init.alive"
let site_pending_r = Site.declare ~write:false "yada.pending_r"
let site_pending_w = Site.declare ~write:true "yada.pending_w"

(* The heap orders element addresses by their (shared) area field. *)
let heap_cmp : Theap.cmp =
 fun acc a b ->
  compare
    (acc.Access.read ~site:site_elem_area_r (a + e_area))
    (acc.Access.read ~site:site_elem_area_r (b + e_area))

type params = { extent : int; area_threshold2 : int }

(* Coordinates are multiples of 3^6 = 729 so six centroid levels divide
   exactly. *)
let scale3 = 729

let params_of = function
  | App.Test -> { extent = 16; area_threshold2 = 16 * 16 * scale3 * scale3 / 4 }
  | App.Bench -> { extent = 16; area_threshold2 = 16 * 16 * scale3 * scale3 / 24 }
  | App.Large -> { extent = 32; area_threshold2 = 32 * 32 * scale3 * scale3 / 64 }

let area2 x1 y1 x2 y2 x3 y3 =
  let a = ((x2 - x1) * (y3 - y1)) - ((x3 - x1) * (y2 - y1)) in
  abs a

let prepare ~nthreads ~scale config =
  let p = params_of scale in
  let world =
    Engine.create ~nthreads ~global_words:(1 lsl 14)
      ~arena_words:(1 lsl 19) config
  in
  let arena = Engine.global_arena world in
  let setup = Access.of_arena arena in
  let mem = Engine.memory world in
  let side = p.extent * scale3 in
  (* Initial mesh: the square split along a diagonal. *)
  let mk_vertex acc x y =
    let v = acc.Access.alloc vertex_words in
    acc.Access.write ~site:site_vertex_init_x (v + v_x) x;
    acc.Access.write ~site:site_vertex_init_y (v + v_y) y;
    v
  in
  let v00 = mk_vertex setup 0 0 in
  let v10 = mk_vertex setup side 0 in
  let v01 = mk_vertex setup 0 side in
  let v11 = mk_vertex setup side side in
  let elements = Tmap.create setup in
  let work = Theap.create setup ~capacity:64 () in
  let mk_element acc a b c =
    let xa = acc.Access.read ~site:site_vertex_x_r (a + v_x) in
    let ya = acc.Access.read ~site:site_vertex_y_r (a + v_y) in
    let xb = acc.Access.read ~site:site_vertex_x_r (b + v_x) in
    let yb = acc.Access.read ~site:site_vertex_y_r (b + v_y) in
    let xc = acc.Access.read ~site:site_vertex_x_r (c + v_x) in
    let yc = acc.Access.read ~site:site_vertex_y_r (c + v_y) in
    let e = acc.Access.alloc element_words in
    acc.Access.write ~site:site_elem_init_v1 (e + e_v1) a;
    acc.Access.write ~site:site_elem_init_v2 (e + e_v2) b;
    acc.Access.write ~site:site_elem_init_v3 (e + e_v3) c;
    acc.Access.write ~site:site_elem_init_area (e + e_area)
      (area2 xa ya xb yb xc yc);
    acc.Access.write ~site:site_elem_init_alive (e + e_alive) 1;
    e
  in
  (* Elements are registered under their own address: unique, and no hot
     shared counter. *)
  let register acc e = ignore (Tmap.insert acc elements ~key:e ~value:e : bool) in
  (* Outstanding bad elements (in the heap or being refined): threads may
     only exit when this reaches zero — a transiently empty heap just
     means all work is in flight. *)
  let pending = setup.Access.alloc 1 in
  let initial_total = ref 0 in
  List.iter
    (fun (a, b, c) ->
      let e = mk_element setup a b c in
      initial_total :=
        !initial_total + setup.Access.read ~site:Site.anonymous_read (e + e_area);
      register setup e;
      if setup.Access.read ~site:Site.anonymous_read (e + e_area) > p.area_threshold2
      then begin
        Theap.insert setup heap_cmp work e;
        setup.Access.write ~site:Site.anonymous_write pending
          (setup.Access.read ~site:Site.anonymous_read pending + 1)
      end)
    [ (v00, v10, v11); (v00, v11, v01) ];
  let body th =
    let continue = ref true in
    while !continue do
      let refined =
        Txn.atomic th (fun tx ->
            let acc = Access.of_tx tx in
            match Theap.pop acc heap_cmp work with
            | None -> false
            | Some e ->
                let bumped = ref (-1) in
                let alive = Txn.read_at ~site:site_elem_alive_r tx (e + e_alive) in
                if alive = 0 then begin
                  (* Defensive: still account the popped work item. *)
                  Txn.write_at ~site:site_pending_w tx pending
                    (Txn.read_for_write_at ~site:site_pending_r tx pending - 1);
                  true
                end
                else begin
                  let a = Txn.read_at ~site:site_elem_v_r tx (e + e_v1) in
                  let b = Txn.read_at ~site:site_elem_v_r tx (e + e_v2) in
                  let c = Txn.read_at ~site:site_elem_v_r tx (e + e_v3) in
                  let xa = Txn.read_at ~site:site_vertex_x_r tx (a + v_x) in
                  let ya = Txn.read_at ~site:site_vertex_y_r tx (a + v_y) in
                  let xb = Txn.read_at ~site:site_vertex_x_r tx (b + v_x) in
                  let yb = Txn.read_at ~site:site_vertex_y_r tx (b + v_y) in
                  let xc = Txn.read_at ~site:site_vertex_x_r tx (c + v_x) in
                  let yc = Txn.read_at ~site:site_vertex_y_r tx (c + v_y) in
                  (* Centroid: exact because coordinates are multiples of
                     powers of 3. *)
                  let gx = (xa + xb + xc) / 3 and gy = (ya + yb + yc) / 3 in
                  Txn.work th 30;
                  let g = Txn.alloc tx vertex_words in
                  Txn.write_at ~site:site_vertex_init_x tx (g + v_x) gx;
                  Txn.write_at ~site:site_vertex_init_y tx (g + v_y) gy;
                  Txn.write_at ~site:site_elem_alive_w tx (e + e_alive) 0;
                  let spawn v1 v2 =
                    let child = Txn.alloc tx element_words in
                    let x1 = Txn.read_at ~site:site_vertex_x_r tx (v1 + v_x) in
                    let y1 = Txn.read_at ~site:site_vertex_y_r tx (v1 + v_y) in
                    let x2 = Txn.read_at ~site:site_vertex_x_r tx (v2 + v_x) in
                    let y2 = Txn.read_at ~site:site_vertex_y_r tx (v2 + v_y) in
                    let ar = area2 x1 y1 x2 y2 gx gy in
                    Txn.write_at ~site:site_elem_init_v1 tx (child + e_v1) v1;
                    Txn.write_at ~site:site_elem_init_v2 tx (child + e_v2) v2;
                    Txn.write_at ~site:site_elem_init_v3 tx (child + e_v3) g;
                    Txn.write_at ~site:site_elem_init_area tx (child + e_area) ar;
                    Txn.write_at ~site:site_elem_init_alive tx (child + e_alive) 1;
                    register acc child;
                    if ar > p.area_threshold2 then begin
                      Theap.insert acc heap_cmp work child;
                      incr bumped
                    end
                  in
                  spawn a b;
                  spawn b c;
                  spawn c a;
                  Txn.write_at ~site:site_pending_w tx pending
                    (Txn.read_for_write_at ~site:site_pending_r tx pending
                       + !bumped);
                  true
                end)
      in
      if not refined then begin
        (* Heap empty: done only when no refinement is still in flight. *)
        if Txn.raw_read th pending = 0 then continue := false
        else begin
          Txn.work th 40;
          Txn.yield_hint th
        end
      end
    done
  in
  let verify () =
    let reader = Engine.setup_thread world in
    let acc = Access.raw reader in
    let total = ref 0 in
    let bad = ref 0 in
    let alive_count = ref 0 in
    let dead_count = ref 0 in
    let _ =
      Tmap.fold acc elements ~init:() ~f:(fun () _id e ->
          let alive = Memory.get mem (e + e_alive) in
          if alive = 1 then begin
            incr alive_count;
            let ar = Memory.get mem (e + e_area) in
            total := !total + ar;
            if ar > p.area_threshold2 then incr bad
          end
          else incr dead_count)
    in
    if !total <> !initial_total then
      Error
        (Printf.sprintf "area not conserved: %d vs initial %d" !total
           !initial_total)
    else if !bad > 0 then
      Error (Printf.sprintf "%d bad elements survived" !bad)
    else if !alive_count <> (2 * !dead_count) + 2 then
      Error
        (Printf.sprintf "element counts inconsistent: %d alive, %d dead"
           !alive_count !dead_count)
    else Result.map_error (fun e -> "elements: " ^ e) (Tmap.check acc elements)
  in
  { App.world; body; verify }

let model =
  lazy
    {
      globals =
        [
          { gname = "yada_work"; gwords = 3; ginit = None };
          { gname = "yada_elements"; gwords = 2; ginit = None };
        ];
      funcs =
        Model_lib.funcs
        @ [
            {
              name = "yada_register";
              params = [ "child" ];
              body =
                [
                  Call
                    {
                      dst = None;
                      func = "map_insert";
                      args = [ Global "yada_elements"; v "child"; v "child" ];
                    };
                  Return (i 0);
                ];
            };
            {
              name = "yada_spawn";
              params = [ "v1"; "v2"; "g" ];
              body =
                [
                  Malloc { dst = "child"; words = i 5; label = "yada.elem" };
                  load ~site:"yada.vertex.x_r" "x1" (v "v1");
                  load ~site:"yada.vertex.y_r" "y1" (v "v1" +: i 1);
                  load ~site:"yada.vertex.x_r" "x2" (v "v2");
                  load ~site:"yada.vertex.y_r" "y2" (v "v2" +: i 1);
                  store ~manual:false ~site:"yada.elem_init.v1" (v "child")
                    (v "v1");
                  store ~manual:false ~site:"yada.elem_init.v2"
                    (v "child" +: i 1) (v "v2");
                  store ~manual:false ~site:"yada.elem_init.v3"
                    (v "child" +: i 2) (v "g");
                  store ~manual:false ~site:"yada.elem_init.area"
                    (v "child" +: i 3)
                    ((v "x1" *: v "y2") -: (v "x2" *: v "y1"));
                  store ~manual:false ~site:"yada.elem_init.alive"
                    (v "child" +: i 4) (i 1);
                  Call { dst = None; func = "yada_register"; args = [ v "child" ] };
                  Call { dst = None; func = "heap_insert"; args = [ Global "yada_work"; v "child" ] };
                  Return (v "child");
                ];
            };
            {
              name = "yada_refine";
              params = [];
              body =
                [
                  Atomic
                    [
                      Call
                        { dst = Some "e"; func = "heap_pop"; args = [ Global "yada_work" ] };
                      If
                        ( v "e" <>: i 0,
                          [
                            load ~site:"yada.elem.alive_r" "alive"
                              (v "e" +: i 4);
                            If
                              ( v "alive",
                                [
                                  load ~site:"yada.elem.v_r" "a" (v "e");
                                  load ~site:"yada.elem.v_r" "b" (v "e" +: i 1);
                                  load ~site:"yada.elem.v_r" "c" (v "e" +: i 2);
                                  load ~site:"yada.vertex.x_r" "xa" (v "a");
                                  load ~site:"yada.vertex.y_r" "ya"
                                    (v "a" +: i 1);
                                  Malloc
                                    { dst = "g"; words = i 2; label = "yada.vertex" };
                                  store ~manual:false ~site:"yada.vertex_init.x"
                                    (v "g") (v "xa");
                                  store ~manual:false ~site:"yada.vertex_init.y"
                                    (v "g" +: i 1) (v "ya");
                                  store ~site:"yada.elem.alive_w" (v "e" +: i 4)
                                    (i 0);
                                  Call
                                    {
                                      dst = None;
                                      func = "yada_spawn";
                                      args = [ v "a"; v "b"; v "g" ];
                                    };
                                  Call
                                    {
                                      dst = None;
                                      func = "yada_spawn";
                                      args = [ v "b"; v "c"; v "g" ];
                                    };
                                  Call
                                    {
                                      dst = None;
                                      func = "yada_spawn";
                                      args = [ v "c"; v "a"; v "g" ];
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
    App.name = "yada";
    description = "mesh refinement: allocation-heavy transactions";
    prepare;
    model;
  }
