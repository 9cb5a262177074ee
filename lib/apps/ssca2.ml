module Config = Captured_stm.Config
module Engine = Captured_stm.Engine
module Txn = Captured_stm.Txn
module Site = Captured_core.Site
module Memory = Captured_tmem.Memory
module Alloc = Captured_tmem.Alloc
module Prng = Captured_util.Prng
module Access = Captured_tstruct.Access
open Captured_tmir.Ir

let site_deg_r = Site.declare ~write:false "ssca2.deg_r"
let site_deg_w = Site.declare ~write:true "ssca2.deg_w"
let site_fill_r = Site.declare ~write:false "ssca2.fill_r"
let site_fill_w = Site.declare ~write:true "ssca2.fill_w"
let site_adj_w = Site.declare ~write:true "ssca2.adj_w"

type params = { nodes : int; edges : int }

let params_of = function
  | App.Test -> { nodes = 32; edges = 128 }
  | App.Bench -> { nodes = 256; edges = 2048 }
  | App.Large -> { nodes = 2048; edges = 16384 }

let prepare ~nthreads ~scale config =
  let p = params_of scale in
  let world =
    Engine.create ~nthreads
      ~global_words:(4 * ((2 * p.edges) + (3 * p.nodes) + p.edges + 64))
      config
  in
  let arena = Engine.global_arena world in
  let mem = Engine.memory world in
  (* Read-only edge list (u,v pairs), R-MAT-ish skew via squaring. *)
  let edge_src = Alloc.alloc arena p.edges in
  let edge_dst = Alloc.alloc arena p.edges in
  let g = Prng.create 0x55CA2 in
  let skewed () =
    let r = Prng.float g in
    int_of_float (r *. r *. float_of_int p.nodes) mod p.nodes
  in
  for e = 0 to p.edges - 1 do
    Memory.set mem (edge_src + e) (skewed ());
    Memory.set mem (edge_dst + e) (Prng.int g p.nodes)
  done;
  let degree = Alloc.alloc arena p.nodes in
  let offset = Alloc.alloc arena (p.nodes + 1) in
  let fill = Alloc.alloc arena p.nodes in
  let adj = Alloc.alloc arena p.edges in
  let barrier = Sync.create (Access.of_arena arena) ~nthreads in
  let chunk = (p.edges + nthreads - 1) / nthreads in
  let body th =
    let tid = Txn.thread_id th in
    let lo = tid * chunk and hi = min p.edges ((tid + 1) * chunk) in
    (* Phase 1: transactional degree counting. *)
    for e = lo to hi - 1 do
      let u = Txn.raw_read th (edge_src + e) in
      Txn.atomic th (fun tx ->
          Txn.write_at ~site:site_deg_w tx (degree + u)
            (Txn.read_for_write_at ~site:site_deg_r tx (degree + u) + 1))
    done;
    let prefix_sums () =
      let total = ref 0 in
      for n = 0 to p.nodes - 1 do
        Txn.raw_write th (offset + n) !total;
        total := !total + Txn.raw_read th (degree + n)
      done;
      Txn.raw_write th (offset + p.nodes) !total
    in
    Sync.wait barrier th ~serial:prefix_sums ();
    (* Phase 2: claim slots and write adjacency. *)
    for e = lo to hi - 1 do
      let u = Txn.raw_read th (edge_src + e) in
      let v_ = Txn.raw_read th (edge_dst + e) in
      let base = Txn.raw_read th (offset + u) in
      Txn.atomic th (fun tx ->
          let k = Txn.read_at ~site:site_fill_r tx (fill + u) in
          Txn.write_at ~site:site_fill_w tx (fill + u) (k + 1);
          Txn.write_at ~site:site_adj_w tx (adj + base + k) v_)
    done;
    Sync.wait barrier th ()
  in
  let verify () =
    (* Reference adjacency multisets. *)
    let expected = Array.make p.nodes [] in
    for e = 0 to p.edges - 1 do
      let u = Memory.get mem (edge_src + e) in
      expected.(u) <- Memory.get mem (edge_dst + e) :: expected.(u)
    done;
    let rec check n =
      if n >= p.nodes then Ok ()
      else begin
        let base = Memory.get mem (offset + n) in
        let deg = Memory.get mem (degree + n) in
        let got =
          List.sort compare
            (List.init deg (fun k -> Memory.get mem (adj + base + k)))
        in
        if got <> List.sort compare expected.(n) then
          Error (Printf.sprintf "adjacency of node %d differs" n)
        else check (n + 1)
      end
    in
    check 0
  in
  { App.world; body; verify }

let model =
  lazy
    {
      globals =
        [
          { gname = "ssca2_degree"; gwords = 64; ginit = None };
          { gname = "ssca2_fill"; gwords = 64; ginit = None };
          { gname = "ssca2_adj"; gwords = 64; ginit = None };
        ];
      funcs =
        Model_lib.funcs
        @ [
            {
              name = "ssca2_count";
              params = [ "u" ];
              body =
                [
                  Atomic
                    [
                      load ~site:"ssca2.deg_r" "d" (Global "ssca2_degree" +: v "u");
                      store ~site:"ssca2.deg_w"
                        (Global "ssca2_degree" +: v "u")
                        (v "d" +: i 1);
                    ];
                  Return (i 0);
                ];
            };
            {
              name = "ssca2_fill";
              params = [ "u"; "base"; "dst" ];
              body =
                [
                  Atomic
                    [
                      load ~site:"ssca2.fill_r" "k" (Global "ssca2_fill" +: v "u");
                      store ~site:"ssca2.fill_w"
                        (Global "ssca2_fill" +: v "u")
                        (v "k" +: i 1);
                      store ~site:"ssca2.adj_w"
                        (Global "ssca2_adj" +: v "base" +: v "k")
                        (v "dst");
                    ];
                  Return (i 0);
                ];
            };
            {
              name = "ssca2_thread";
              params = [];
              body =
                [
                  Call { dst = None; func = "ssca2_count"; args = [ i 3 ] };
                  Call
                    {
                      dst = None;
                      func = "ssca2_fill";
                      args = [ i 3; i 10; i 4 ];
                    };
                  Return (i 0);
                ];
            };
          ];
    }

let app =
  {
    App.name = "ssca2";
    description = "graph construction kernel, tiny shared-array transactions";
    prepare;
    model;
  }
