module Config = Captured_stm.Config
module Engine = Captured_stm.Engine
module Txn = Captured_stm.Txn
module Site = Captured_core.Site

type scale = Test | Bench | Large

type prepared = {
  world : Engine.world;
  body : Txn.thread -> unit;
  verify : unit -> (unit, string) result;
}

type t = {
  name : string;
  description : string;
  prepare : nthreads:int -> scale:scale -> Config.t -> prepared;
  model : Captured_tmir.Ir.program Lazy.t;
}

let load_verdicts app config =
  Site.reset_verdicts ();
  let static =
    match config.Config.analysis with
    | Config.Compiler -> true
    | Config.Runtime _ -> config.Config.static_filter
    | Config.Baseline -> false
  in
  if static then
    Captured_tmir.Capture_analysis.apply
      (Captured_tmir.Capture_analysis.analyze (Lazy.force app.model))

let run_checked ?wal_dir ?max_cycles app ~nthreads ~scale ~mode config =
  load_verdicts app config;
  let p = app.prepare ~nthreads ~scale config in
  if config.Config.durable then begin
    (* Attach after setup: the baseline checkpoint snapshots the built
       shared state, so recovery never re-runs initialization. *)
    let w =
      Captured_stm.Wal.create ~group:config.Config.wal_group ?dir:wal_dir ()
    in
    Engine.attach_wal p.world w
  end;
  let result =
    match mode with
    | `Sim seed -> Engine.run_sim ?max_cycles ~seed p.world p.body
    | `Native -> Engine.run_native p.world p.body
  in
  (* Final flush: a clean shutdown acknowledges everything pending, so a
     recovery from the mirrored directory replays the complete run. *)
  (match Engine.wal p.world with
  | Some w -> Captured_stm.Wal.sync w
  | None -> ());
  match p.verify () with Ok () -> Ok result | Error m -> Error m

let run app ~nthreads ~scale ~mode config =
  match run_checked app ~nthreads ~scale ~mode config with
  | Ok r -> r
  | Error m -> failwith (Printf.sprintf "%s: verification failed: %s" app.name m)
