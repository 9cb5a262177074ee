module Config = Captured_stm.Config
module Engine = Captured_stm.Engine
module Txn = Captured_stm.Txn
module Site = Captured_core.Site
module Memory = Captured_tmem.Memory
module Alloc = Captured_tmem.Alloc
module Prng = Captured_util.Prng
module Access = Captured_tstruct.Access
module Tqueue = Captured_tstruct.Tqueue
open Captured_tmir.Ir

let site_grid_r = Site.declare ~write:false "labyrinth.grid_r"
let site_grid_w = Site.declare ~write:true "labyrinth.grid_w"
let _site_routed_r = Site.declare ~write:false "labyrinth.routed_r"
let site_routed_w = Site.declare ~write:true "labyrinth.routed_w"

type params = { width : int; height : int; depth : int; npaths : int }

let params_of = function
  | App.Test -> { width = 12; height = 12; depth = 2; npaths = 10 }
  | App.Bench -> { width = 40; height = 40; depth = 3; npaths = 32 }
  | App.Large -> { width = 64; height = 64; depth = 3; npaths = 128 }

let prepare ~nthreads ~scale config =
  let p = params_of scale in
  let cells = p.width * p.height * p.depth in
  let world =
    Engine.create ~nthreads ~global_words:(4 * (cells + (8 * p.npaths) + 64))
      config
  in
  let arena = Engine.global_arena world in
  let mem = Engine.memory world in
  let setup = Access.of_arena arena in
  let grid = Alloc.alloc arena cells in
  (* Work items: {src, dst} cell indices; path ids start at 1
     (0 = empty cell). *)
  let g = Prng.create 0x7AB1A1 in
  let idx x y z = (((z * p.height) + y) * p.width) + x in
  let endpoints = Array.make (p.npaths * 2) 0 in
  let used = Hashtbl.create 64 in
  (* Destinations are near their sources (as in routing workloads, nets
     are mostly local): expansions stay regional, so only neighbouring
     paths conflict. *)
  let reach = 6 in
  for path = 0 to p.npaths - 1 do
    let rec pick_src () =
      let x = Prng.int g p.width and y = Prng.int g p.height and z = Prng.int g p.depth in
      let c = idx x y z in
      if Hashtbl.mem used c then pick_src () else (Hashtbl.add used c (); (x, y, z, c))
    in
    let sx, sy, sz, src = pick_src () in
    let rec pick_dst tries =
      let x = max 0 (min (p.width - 1) (sx + Prng.in_range g (-reach) reach)) in
      let y = max 0 (min (p.height - 1) (sy + Prng.in_range g (-reach) reach)) in
      let z = if p.depth = 1 then sz else Prng.int g p.depth in
      let c = idx x y z in
      if (c = src || Hashtbl.mem used c) && tries < 100 then pick_dst (tries + 1)
      else (Hashtbl.add used c (); c)
    in
    endpoints.(2 * path) <- src;
    endpoints.((2 * path) + 1) <- pick_dst 0
  done;
  (* Reserve endpoints up front (as STAMP does): no other path may pass
     through them. *)
  for path = 0 to p.npaths - 1 do
    Memory.set mem (grid + endpoints.(2 * path)) (path + 1);
    Memory.set mem (grid + endpoints.((2 * path) + 1)) (path + 1)
  done;
  let work = Tqueue.create setup ~capacity:(p.npaths + 2) () in
  for path = 0 to p.npaths - 1 do
    Tqueue.push setup work (path + 1)
  done;
  (* Result table: routed[path] = 1 on success. *)
  let routed = Alloc.alloc arena (p.npaths + 1) in
  let neighbors = [| (1, 0, 0); (-1, 0, 0); (0, 1, 0); (0, -1, 0); (0, 0, 1); (0, 0, -1) |] in
  let body th =
    (* Native thread-local scratch: no TM accesses at all. *)
    let cost = Array.make cells (-1) in
    let frontier = Queue.create () in
    let continue = ref true in
    while !continue do
      let item =
        Txn.atomic th (fun tx -> Tqueue.pop (Access.of_tx tx) work)
      in
      match item with
      | None -> continue := false
      | Some path_id ->
          let src = endpoints.(2 * (path_id - 1)) in
          let dst = endpoints.((2 * (path_id - 1)) + 1) in
          let ok =
            Txn.atomic th (fun tx ->
                (* Expansion: BFS over the shared grid (barrier reads). *)
                Array.fill cost 0 cells (-1);
                Queue.clear frontier;
                cost.(src) <- 0;
                Queue.push src frontier;
                let found = ref false in
                while (not !found) && not (Queue.is_empty frontier) do
                  let c = Queue.pop frontier in
                  if c = dst then found := true
                  else begin
                    let z = c / (p.width * p.height) in
                    let y = c mod (p.width * p.height) / p.width in
                    let x = c mod p.width in
                    Array.iter
                      (fun (dx, dy, dz) ->
                        let x' = x + dx and y' = y + dy and z' = z + dz in
                        if
                          x' >= 0 && x' < p.width && y' >= 0 && y' < p.height
                          && z' >= 0 && z' < p.depth
                        then begin
                          let c' = idx x' y' z' in
                          if cost.(c') < 0 then begin
                            let v = Txn.read_at ~site:site_grid_r tx (grid + c') in
                            Txn.work th 2;
                            if v = 0 || v = path_id then begin
                              cost.(c') <- cost.(c) + 1;
                              Queue.push c' frontier
                            end
                          end
                        end)
                      neighbors
                  end
                done;
                if not !found then false
                else begin
                  (* Traceback: claim cells dst -> src with barrier
                     writes. *)
                  let rec back c =
                    Txn.write_at ~site:site_grid_w tx (grid + c) path_id;
                    if c <> src then begin
                      let z = c / (p.width * p.height) in
                      let y = c mod (p.width * p.height) / p.width in
                      let x = c mod p.width in
                      let next = ref (-1) in
                      Array.iter
                        (fun (dx, dy, dz) ->
                          let x' = x + dx and y' = y + dy and z' = z + dz in
                          if
                            !next < 0 && x' >= 0 && x' < p.width && y' >= 0
                            && y' < p.height && z' >= 0 && z' < p.depth
                          then begin
                            let c' = idx x' y' z' in
                            if cost.(c') = cost.(c) - 1 then next := c'
                          end)
                        neighbors;
                      if !next >= 0 then back !next
                    end
                  in
                  back dst;
                  Txn.write_at ~site:site_routed_w tx (routed + path_id) 1;
                  true
                end)
          in
          ignore ok
    done
  in
  let verify () =
    (* Every successfully routed path must be a connected src->dst chain
       of cells labelled with its id; cells carry at most one id. *)
    let error = ref None in
    for path_id = 1 to p.npaths do
      if Memory.get mem (routed + path_id) = 1 && !error = None then begin
        let src = endpoints.(2 * (path_id - 1)) in
        let dst = endpoints.((2 * (path_id - 1)) + 1) in
        if Memory.get mem (grid + src) <> path_id then
          error := Some (Printf.sprintf "path %d: src not claimed" path_id)
        else begin
          (* BFS restricted to cells labelled path_id must reach dst. *)
          let seen = Array.make cells false in
          let q = Queue.create () in
          Queue.push src q;
          seen.(src) <- true;
          let reached = ref false in
          while not (Queue.is_empty q) do
            let c = Queue.pop q in
            if c = dst then reached := true;
            let z = c / (p.width * p.height) in
            let y = c mod (p.width * p.height) / p.width in
            let x = c mod p.width in
            Array.iter
              (fun (dx, dy, dz) ->
                let x' = x + dx and y' = y + dy and z' = z + dz in
                if
                  x' >= 0 && x' < p.width && y' >= 0 && y' < p.height && z' >= 0
                  && z' < p.depth
                then begin
                  let c' = idx x' y' z' in
                  if (not seen.(c')) && Memory.get mem (grid + c') = path_id
                  then begin
                    seen.(c') <- true;
                    Queue.push c' q
                  end
                end)
              neighbors
          done;
          if not !reached then
            error := Some (Printf.sprintf "path %d: disconnected" path_id)
        end
      end
    done;
    (* At least some paths must have routed in an empty-enough maze. *)
    let nrouted = ref 0 in
    for path_id = 1 to p.npaths do
      if Memory.get mem (routed + path_id) = 1 then incr nrouted
    done;
    if !error <> None then Error (Option.get !error)
    else if !nrouted = 0 then Error "no path routed at all"
    else Ok ()
  in
  { App.world; body; verify }

(* The model mirrors the transaction: grid reads in a loop, grid writes in
   a loop — all on a shared global.  Nothing captured. *)
let model =
  lazy
    {
      globals =
        [
          { gname = "lab_grid"; gwords = 64; ginit = None };
          { gname = "lab_work"; gwords = 4; ginit = None };
          { gname = "lab_routed"; gwords = 8; ginit = None };
        ];
      funcs =
        Model_lib.funcs
        @ [
            {
              name = "labyrinth_route";
              params = [ "src"; "dst"; "pid" ];
              body =
                [
                  Atomic
                    [
                      Call
                        { dst = Some "item"; func = "queue_pop"; args = [ Global "lab_work" ] };
                      Let ("c", v "src");
                      While
                        ( v "c" <: v "dst",
                          [
                            load ~site:"labyrinth.grid_r" "cell"
                              (Global "lab_grid" +: v "c");
                            Let ("c", v "c" +: i 1);
                          ] );
                      Let ("c", v "src");
                      While
                        ( v "c" <: v "dst",
                          [
                            store ~site:"labyrinth.grid_w"
                              (Global "lab_grid" +: v "c") (v "pid");
                            Let ("c", v "c" +: i 1);
                          ] );
                      store ~site:"labyrinth.routed_w"
                        (Global "lab_routed" +: v "pid") (i 1);
                    ];
                  Return (i 0);
                ];
            };
            {
              name = "labyrinth_thread";
              params = [];
              body =
                [
                  Call
                    {
                      dst = None;
                      func = "labyrinth_route";
                      args = [ i 0; i 20; i 1 ];
                    };
                  Return (i 0);
                ];
            };
          ];
    }

let app =
  {
    App.name = "labyrinth";
    description = "transactional maze routing over a shared grid";
    prepare;
    model;
  }
