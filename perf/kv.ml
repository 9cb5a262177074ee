(* The kv workload: a benchmark-owned ordered map ({!Tmap}, a treap in
   transactional memory) served by closed-loop clients, one per thread.

   Keys live in a universe of [2 * keys]; the even ones are prefilled, so
   about half the finds hit and about half the updates insert.  Each
   client draws keys skewed towards a hot set (the cube of a uniform
   draw, scattered over the universe by an odd multiplier so hot keys
   are not tree neighbours) from its thread's PRNG, which
   [Engine.run_native ~seed] / [run_sim ~seed] seed: the benchmark's
   [--seed] decides the key stream, nothing else does.  Mix: 90% find,
   5% update-or-insert, 5% remove. *)

module Config = Captured_stm.Config
module Engine = Captured_stm.Engine
module Txn = Captured_stm.Txn
module Prng = Captured_util.Prng
module Access = Captured_tstruct.Access
module Tmap = Captured_tstruct.Tmap
module App = Captured_apps.App

(* [+ebr]: removes free nodes that concurrent finds may still be reading
   (see Harness.workloads). *)
let config =
  Config.runtime Captured_core.Alloc_log.Tree
  |> Config.with_fastpath |> Config.with_tvalidate |> Config.with_ebr

(* [Large], the native map, is 2^16 nodes (~3 MB with block headers):
   it stays in a core's private cache.  A 2^20-node map (~48 MB) lives
   in a last-level cache shared with the host's other tenants: its
   1-domain throughput moved by 26% between runs of ten seeds (5% for the
   small map), and each build added ~0.5 s of set-up.  [Bench] keeps
   simulator legs quick: the simulator has no cache model, so only the
   tree depth carries over. *)
let log2_keys = function App.Large -> 16 | App.Bench -> 14 | App.Test -> 10

let k_find = 0
let k_update = 1
let k_remove = 2

type t = {
  world : Engine.world;
  map : Tmap.handle;
  universe_mask : int;
  ops : int;  (** per client per run *)
  timing : bool;  (** record per-operation latency (native runs) *)
  lat : int array array;
      (** per tid, per op: [(ns lsl 2) lor kind] of the last run *)
  inserts : int array;  (** per tid, last run: committed fresh inserts *)
  removes : int array;  (** per tid, last run: committed removals *)
  mutable expected : int;  (** size the map must have after [verify] *)
}

let build ?(timing = false) ~nthreads ~scale ~ops () =
  let keys = 1 lsl log2_keys scale in
  let node_block = Tmap.node_words + 1 (* allocator header *) in
  let world =
    Engine.create ~nthreads ~global_words:((keys * node_block) + 1024) config
  in
  let setup = Access.of_arena (Engine.global_arena world) in
  let map = Tmap.create setup in
  for i = 0 to keys - 1 do
    ignore (Tmap.insert setup map ~key:(2 * i) ~value:i : bool)
  done;
  {
    world;
    map;
    universe_mask = (2 * keys) - 1;
    ops;
    timing;
    lat = Array.init nthreads (fun _ -> if timing then Array.make ops 0 else [||]);
    inserts = Array.make nthreads 0;
    removes = Array.make nthreads 0;
    expected = keys;
  }

let draw_key t g =
  let u = Prng.float g in
  let idx = int_of_float (u *. u *. u *. float_of_int (t.universe_mask + 1)) in
  (idx * 0x9E3779B1) land t.universe_mask

let body t th =
  let tid = Txn.thread_id th in
  let g = Txn.thread_prng th in
  let lat = t.lat.(tid) in
  let ins = ref 0 and rem = ref 0 in
  for i = 0 to t.ops - 1 do
    let key = draw_key t g in
    let r = Prng.int g 100 in
    let t0 = if t.timing then Tracing.now () else 0 in
    let kind =
      if r < 90 then begin
        ignore
          (Txn.atomic th (fun tx -> Tmap.find (Access.of_tx tx) t.map key)
            : int option);
        k_find
      end
      else if r < 95 then begin
        if
          Txn.atomic th (fun tx ->
              Tmap.update (Access.of_tx tx) t.map ~key ~value:i)
        then incr ins;
        k_update
      end
      else begin
        if Txn.atomic th (fun tx -> Tmap.remove (Access.of_tx tx) t.map key)
        then incr rem;
        k_remove
      end
    in
    if t.timing then lat.(i) <- ((Tracing.now () - t0) lsl 2) lor kind
  done;
  t.inserts.(tid) <- !ins;
  t.removes.(tid) <- !rem

(* In-order fold of the whole map, outside any transaction: keys must be
   strictly increasing and their count must equal the prefill plus every
   client's committed inserts minus its committed removes. *)
let check t =
  let acc = Access.of_arena (Engine.global_arena t.world) in
  let count, _, sorted =
    Tmap.fold acc t.map ~init:(0, min_int, true) ~f:(fun (n, prev, ok) k _ ->
        (n + 1, k, ok && k > prev))
  in
  if not sorted then Error "kv: in-order keys are not strictly increasing"
  else if count <> t.expected then
    Error
      (Printf.sprintf "kv: map holds %d keys, clients account for %d" count
         t.expected)
  else Ok ()

let verify t =
  for tid = 0 to Array.length t.inserts - 1 do
    t.expected <- t.expected + t.inserts.(tid) - t.removes.(tid);
    t.inserts.(tid) <- 0;
    t.removes.(tid) <- 0
  done;
  check t

let prepared t =
  { App.world = t.world; body = body t; verify = (fun () -> verify t) }
