module Config = Captured_stm.Config
module Engine = Captured_stm.Engine
module Txn = Captured_stm.Txn
module Site = Captured_core.Site
module Memory = Captured_tmem.Memory
module Alloc = Captured_tmem.Alloc
module Prng = Captured_util.Prng
module Fixed = Captured_util.Fixed
module Access = Captured_tstruct.Access
open Captured_tmir.Ir

let site_count_r = Site.declare ~write:false "kmeans.count_r"
let site_count_w = Site.declare ~write:true "kmeans.count_w"
let site_acc_r = Site.declare ~write:false "kmeans.acc_r"
let site_acc_w = Site.declare ~write:true "kmeans.acc_w"

type params = {
  npoints : int;
  dims : int;
  nclusters : int;
  iterations : int;
}

let params_of ~high = function
  | App.Test ->
      { npoints = 96; dims = 2; nclusters = (if high then 3 else 8); iterations = 2 }
  | App.Bench ->
      {
        npoints = 768;
        dims = 4;
        nclusters = (if high then 5 else 16);
        iterations = 3;
      }
  | App.Large ->
      {
        npoints = 4096;
        dims = 8;
        nclusters = (if high then 8 else 32);
        iterations = 5;
      }

(* Shared layout (global arena):
   points  : npoints*dims fixed-point words (read-only)
   centers : nclusters*dims
   acc     : nclusters*dims   (accumulators, transactional)
   counts  : nclusters        (transactional) *)
type state = {
  p : params;
  points : int;
  centers : int;
  acc : int;
  counts : int;
  world : Engine.world;
  reference : int array; (* expected final centers, fixed-point *)
}

let dist2 ~dims point_vals center_vals =
  let d2 = ref 0 in
  for d = 0 to dims - 1 do
    let diff = Fixed.sub point_vals.(d) center_vals.(d) in
    d2 := Fixed.add !d2 (Fixed.mul diff diff)
  done;
  !d2

(* Sequential reference implementation over plain arrays: the
   transactional run must reproduce it exactly (integer adds commute). *)
let reference_centers p points_arr =
  let centers = Array.make (p.nclusters * p.dims) 0 in
  for c = 0 to p.nclusters - 1 do
    for d = 0 to p.dims - 1 do
      centers.((c * p.dims) + d) <- points_arr.((c * p.dims) + d)
    done
  done;
  let point = Array.make p.dims 0 in
  let center = Array.make p.dims 0 in
  for _ = 1 to p.iterations do
    let acc = Array.make (p.nclusters * p.dims) 0 in
    let counts = Array.make p.nclusters 0 in
    for i = 0 to p.npoints - 1 do
      for d = 0 to p.dims - 1 do
        point.(d) <- points_arr.((i * p.dims) + d)
      done;
      let best = ref 0 and best_d = ref max_int in
      for c = 0 to p.nclusters - 1 do
        for d = 0 to p.dims - 1 do
          center.(d) <- centers.((c * p.dims) + d)
        done;
        let d2 = dist2 ~dims:p.dims point center in
        if d2 < !best_d then begin
          best_d := d2;
          best := c
        end
      done;
      counts.(!best) <- counts.(!best) + 1;
      for d = 0 to p.dims - 1 do
        acc.((!best * p.dims) + d) <- acc.((!best * p.dims) + d) + point.(d)
      done
    done;
    for c = 0 to p.nclusters - 1 do
      if counts.(c) > 0 then
        for d = 0 to p.dims - 1 do
          centers.((c * p.dims) + d) <- acc.((c * p.dims) + d) / counts.(c)
        done
    done
  done;
  centers

let prepare ~high ~nthreads ~scale (config : Config.t) =
  let p = params_of ~high scale in
  let world =
    Engine.create ~nthreads
      ~global_words:(4 * ((p.npoints * p.dims) + (2 * p.nclusters * p.dims) + p.nclusters + 64))
      config
  in
  let arena = Engine.global_arena world in
  let mem = Engine.memory world in
  let points = Alloc.alloc arena (p.npoints * p.dims) in
  let centers = Alloc.alloc arena (p.nclusters * p.dims) in
  let acc = Alloc.alloc arena (p.nclusters * p.dims) in
  let counts = Alloc.alloc arena p.nclusters in
  let g = Prng.create 0xBEEF in
  let points_arr = Array.make (p.npoints * p.dims) 0 in
  for k = 0 to (p.npoints * p.dims) - 1 do
    points_arr.(k) <- Fixed.of_float (Prng.float g *. 10.);
    Memory.set mem (points + k) points_arr.(k)
  done;
  for k = 0 to (p.nclusters * p.dims) - 1 do
    Memory.set mem (centers + k) points_arr.(k)
  done;
  let reference = reference_centers p points_arr in
  let st = { p; points; centers; acc; counts; world; reference } in
  let barrier =
    Sync.create (Access.of_arena arena) ~nthreads
  in
  let chunk = (p.npoints + nthreads - 1) / nthreads in
  let body th =
    let tid = Txn.thread_id th in
    let jitter = Txn.thread_prng th in
    let lo = tid * chunk and hi = min p.npoints ((tid + 1) * chunk) in
    let point = Array.make p.dims 0 in
    let center = Array.make p.dims 0 in
    let recompute () =
      (* Serial, last arriver: centers := acc / counts, reset. *)
      for c = 0 to p.nclusters - 1 do
        let n = Txn.raw_read th (counts + c) in
        if n > 0 then
          for d = 0 to p.dims - 1 do
            let sum = Txn.raw_read th (acc + (c * p.dims) + d) in
            Txn.raw_write th (centers + (c * p.dims) + d) (sum / n)
          done;
        Txn.raw_write th (counts + c) 0;
        for d = 0 to p.dims - 1 do
          Txn.raw_write th (acc + (c * p.dims) + d) 0
        done
      done
    in
    for _ = 1 to p.iterations do
      for i = lo to hi - 1 do
        for d = 0 to p.dims - 1 do
          point.(d) <- Txn.raw_read th (points + (i * p.dims) + d)
        done;
        let best = ref 0 and best_d = ref max_int in
        for c = 0 to p.nclusters - 1 do
          for d = 0 to p.dims - 1 do
            center.(d) <- Txn.raw_read th (centers + (c * p.dims) + d)
          done;
          let d2 = dist2 ~dims:p.dims point center in
          (* Cache/pipeline variance a real machine would have. *)
          Txn.work th ((4 * p.dims) + Prng.int jitter 4);
          if d2 < !best_d then begin
            best_d := d2;
            best := c
          end
        done;
        let c = !best in
        Txn.atomic th (fun tx ->
            Txn.write_at ~site:site_count_w tx (counts + c)
              (Txn.read_for_write_at ~site:site_count_r tx (counts + c) + 1);
            for d = 0 to p.dims - 1 do
              let a = acc + (c * p.dims) + d in
              Txn.write_at ~site:site_acc_w tx a
                (Txn.read_for_write_at ~site:site_acc_r tx a + point.(d))
            done)
      done;
      Sync.wait barrier th ~serial:recompute ()
    done
  in
  let verify () =
    let rec go k =
      if k >= p.nclusters * p.dims then Ok ()
      else if Memory.get mem (centers + k) <> st.reference.(k) then
        Error
          (Printf.sprintf "center word %d: got %d, expected %d" k
             (Memory.get mem (centers + k))
             st.reference.(k))
      else go (k + 1)
    in
    go 0
  in
  { App.world; body; verify }

(* IR model: all transactional accesses hit shared global accumulators —
   nothing is captured, which is the point. *)
let model =
  lazy
    {
      globals =
        [
          { gname = "kmeans_counts"; gwords = 64; ginit = None };
          { gname = "kmeans_acc"; gwords = 256; ginit = None };
        ];
      funcs =
        Model_lib.funcs
        @ [
            {
              name = "kmeans_update";
              params = [ "c"; "dims"; "pointbase" ];
              body =
                [
                  Atomic
                    [
                      load ~site:"kmeans.count_r" "n"
                        (Global "kmeans_counts" +: v "c");
                      store ~site:"kmeans.count_w"
                        (Global "kmeans_counts" +: v "c")
                        (v "n" +: i 1);
                      Let ("d", i 0);
                      While
                        ( v "d" <: v "dims",
                          [
                            load ~site:"kmeans.acc_r" "a"
                              (Global "kmeans_acc" +: v "c" +: v "d");
                            store ~site:"kmeans.acc_w"
                              (Global "kmeans_acc" +: v "c" +: v "d")
                              (v "a" +: i 1);
                            Let ("d", v "d" +: i 1);
                          ] );
                    ];
                  Return (i 0);
                ];
            };
            {
              name = "kmeans_thread";
              params = [];
              body =
                [
                  Call
                    {
                      dst = None;
                      func = "kmeans_update";
                      args = [ i 2; i 4; i 0 ];
                    };
                  Return (i 0);
                ];
            };
          ];
    }

let mk ~high name desc =
  {
    App.name;
    description = desc;
    prepare = (fun ~nthreads ~scale config -> prepare ~high ~nthreads ~scale config);
    model;
  }

let high = mk ~high:true "kmeans-high" "clustering, few clusters (high contention)"
let low = mk ~high:false "kmeans-low" "clustering, many clusters (low contention)"
