(* Run the paper's headline benchmark — vacation — under every
   optimisation and report what the capture analysis bought: elided
   barriers, abort ratio, and 16-thread virtual execution time.

   Run with: dune exec examples/vacation_tour.exe *)

module Config = Captured_stm.Config
module Engine = Captured_stm.Engine
module Stats = Captured_stm.Stats
module Alloc_log = Captured_core.Alloc_log
module App = Captured_apps.App
module Registry = Captured_apps.Registry

let () =
  let app = Option.get (Registry.find "vacation-high") in
  Printf.printf "vacation-high, 16 simulated threads\n\n";
  Printf.printf "%-34s %9s %9s %9s %10s\n" "configuration" "elided-r" "elided-w"
    "abort/cmt" "makespan";
  let base = ref 0. in
  List.iter
    (fun config ->
      let r = App.run app ~nthreads:16 ~scale:App.Bench ~mode:(`Sim 1) config in
      let s = r.Engine.stats in
      if config == Config.baseline then base := float_of_int r.Engine.makespan;
      Printf.printf "%-34s %8.1f%% %8.1f%% %9.2f %10d (%+.1f%%)\n"
        (Config.to_string config)
        (* Capture elisions only: init-only reads are elided alike in
           every configuration. *)
        (100.
        *. float_of_int (Stats.reads_elided s - s.Stats.reads_elided_init)
        /. float_of_int (max 1 s.Stats.reads))
        (100. *. float_of_int (Stats.writes_elided s)
        /. float_of_int (max 1 s.Stats.writes))
        (Stats.abort_ratio s) r.Engine.makespan
        (100. *. (!base -. float_of_int r.Engine.makespan) /. !base))
    [
      Config.baseline;
      Config.runtime Alloc_log.Tree;
      Config.runtime ~scope:Config.write_only_scope Alloc_log.Tree;
      Config.runtime ~scope:Config.heap_write_only_scope Alloc_log.Tree;
      Config.runtime ~scope:Config.heap_write_only_scope Alloc_log.Array;
      Config.runtime ~scope:Config.heap_write_only_scope Alloc_log.Filter;
      Config.compiler;
    ]
