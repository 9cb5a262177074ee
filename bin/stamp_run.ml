(* CLI front end: run any STAMP workload under any capture-analysis
   configuration, on the deterministic simulator or native domains, and
   print the full statistics.

   Examples:
     stamp_run list
     stamp_run run vacation-high --config tree --threads 16
     stamp_run run yada --config tree+scope:hw+fp+ebr --scale large --native
     stamp_run run intruder --config tree+lazy+fault:crash-pre-commit \
       --wal wal-out
     stamp_run recover wal-out
     stamp_run analyze bayes *)

module Config = Captured_stm.Config
module Fault = Captured_stm.Fault
module Wal = Captured_stm.Wal
module Engine = Captured_stm.Engine
module Stats = Captured_stm.Stats
module App = Captured_apps.App
module Registry = Captured_apps.Registry
module Profile = Captured_util.Profile
open Cmdliner

let scale_of_name = function
  | "test" -> Ok App.Test
  | "bench" -> Ok App.Bench
  | "large" -> Ok App.Large
  | other -> Error (Printf.sprintf "unknown scale %s" other)

(* Orec table geometry: runs that differ only in table size behave
   differently under contention, so every report names it.  Every report
   also names its build profile ([Profile.profile]): only the default
   release build inlines across modules, which moves every native
   figure. *)
let orec_records config = 1 lsl config.Config.orec_bits

let print_json ~app ~config ~threads (r : Engine.result) ~native =
  Printf.printf
    "{\"app\":\"%s\",\"config\":\"%s\",\"threads\":%d,\"backend\":\"%s\",\
     \"profile\":\"%s\",\"orecs\":%d,\"resident_words\":%d,%s,\
     \"makespan\":%d,\"wall_ms\":%.3f,\"per_thread_wall_ms\":[%s]}\n"
    app (Config.to_string config) threads
    (if native then "native" else "sim")
    Profile.profile (orec_records config) r.Engine.resident_words
    (Stats.json_fields r.Engine.stats)
    r.Engine.makespan
    (1000. *. r.Engine.wall)
    (String.concat ","
       (Array.to_list
          (Array.map
             (fun tw -> Printf.sprintf "%.3f" (1000. *. tw))
             r.Engine.per_thread_wall)))

let print_result (r : Engine.result) ~native =
  let s = r.Engine.stats in
  print_string (Stats.report s);
  Printf.printf "%-25s %.3f\n" "abort ratio:" (Stats.abort_ratio s);
  Printf.printf "%-25s %d\n" "resident words:" r.Engine.resident_words;
  if native then begin
    Printf.printf "%-25s %.3f ms\n" "wall time:" (1000. *. r.Engine.wall);
    Printf.printf "%-25s %.3f ms (slowest domain)\n" "native makespan:"
      (float_of_int r.Engine.makespan /. 1e6);
    Array.iteri
      (fun tid tw ->
        Printf.printf "  domain %-2d wall: %8.3f ms  %s\n" tid (1000. *. tw)
          (Format.asprintf "%a" Stats.pp r.Engine.per_thread.(tid)))
      r.Engine.per_thread_wall
  end
  else Printf.printf "%-25s %d cycles\n" "virtual makespan:" r.Engine.makespan

let print_recovery ~json dir (rc : Wal.recovery) =
  if json then
    Printf.printf
      "{\"recovered\":\"%s\",\"floor_seq\":%d,\"floor_raws\":%d,\
       \"commits_replayed\":%d,\"raws_replayed\":%d,\"records\":%d,\
       \"torn\":%b,\"corrupt\":%b,\"frees_replayed\":%d,\
       \"recovery_ms\":%.3f}\n"
      dir rc.Wal.r_floor_seq rc.Wal.r_floor_raws
      (List.length rc.Wal.r_applied_seqs)
      rc.Wal.r_raws_applied rc.Wal.r_records rc.Wal.r_torn rc.Wal.r_corrupt
      (List.length rc.Wal.r_freed) rc.Wal.r_wall_ms
  else begin
    Printf.printf "recovered from:     %s\n" dir;
    Printf.printf "checkpoint floor:   commit seq %d, %d raw stores\n"
      rc.Wal.r_floor_seq rc.Wal.r_floor_raws;
    Printf.printf "replayed:           %d commits / %d raw stores / %d frees\n"
      (List.length rc.Wal.r_applied_seqs)
      rc.Wal.r_raws_applied
      (List.length rc.Wal.r_freed);
    Printf.printf "records scanned:    %d%s%s\n" rc.Wal.r_records
      (if rc.Wal.r_torn then " (torn tail dropped)" else "")
      (if rc.Wal.r_corrupt then " (CORRUPT tail dropped)" else "");
    Printf.printf "recovery wall:      %.3f ms\n" rc.Wal.r_wall_ms
  end

let run_cmd app_name config_name scale_name threads native seed wal_dir json =
  let ( let* ) = Result.bind in
  let outcome =
    let* config = Config.of_string config_name in
    let config = if wal_dir = "" then config else Config.with_durable config in
    let fault_name =
      Option.fold ~none:"" ~some:Fault.name config.Config.fault
    in
    let* () =
      match config.Config.fault with
      | Some f when Fault.is_crash f && native ->
          Error
            (Printf.sprintf
               "fault %s is a simulated crash-point; it needs the \
                deterministic simulator (drop --native)"
               (Fault.name f))
      | Some f when Fault.is_crash f && wal_dir = "" ->
          Error
            (Printf.sprintf "fault %s needs a durable log: pass --wal DIR"
               (Fault.name f))
      | _ -> Ok ()
    in
    let* scale = scale_of_name scale_name in
    match Registry.find app_name with
    | None ->
        Error
          (Printf.sprintf "unknown app %s (try: %s)" app_name
             (String.concat " " (Registry.names ())))
    | Some app ->
        if not json then
          Printf.printf "%s [%s, %d threads, %s, %s, %d orecs, %s build]\n\n"
            app.App.name (Config.to_string config) threads scale_name
            (if native then "native domains" else "simulator")
            (orec_records config) Profile.profile;
        let mode = if native then `Native else `Sim seed in
        let wal_dir_opt = if wal_dir = "" then None else Some wal_dir in
        let run_outcome =
          try
            `Done
              (App.run_checked ?wal_dir:wal_dir_opt app ~nthreads:threads
                 ~scale ~mode config)
          with Captured_sim.Sched.Fiber_failure (tid, Wal.Crashed) ->
            `Crashed tid
        in
        (match run_outcome with
        | `Done result ->
            let* result = result in
            if json then
              print_json ~app:app.App.name ~config ~threads result ~native
            else begin
              print_result result ~native;
              Printf.printf "\nverification: OK\n"
            end;
            Ok ()
        | `Crashed tid ->
            (* Injected crash-point fired: the durable prefix mirrored to
               --wal DIR is all that survives, exactly like a real
               process death. *)
            if not json then
              Printf.printf
                "simulated crash on thread %d (%s); durable log left in \
                 %s\n"
                tid fault_name wal_dir
            else
              Printf.printf
                "{\"app\":\"%s\",\"crashed\":true,\"fault\":\"%s\",\
                 \"tid\":%d,\"wal\":\"%s\"}\n"
                app.App.name fault_name tid wal_dir;
            Ok ())
  in
  match outcome with
  | Ok () -> `Ok ()
  | Error m -> `Error (false, m)

let recover_cmd wal_dir json =
  match Wal.recover_dir wal_dir with
  | Error m -> `Error (false, "recovery: " ^ m)
  | Ok rc ->
      print_recovery ~json wal_dir rc;
      `Ok ()

let list_cmd () =
  List.iter
    (fun app -> Printf.printf "%-14s %s\n" app.App.name app.App.description)
    Registry.all;
  `Ok ()

let analyze_cmd app_name =
  match Registry.find app_name with
  | None -> `Error (false, "unknown app " ^ app_name)
  | Some app ->
      let analysis =
        Captured_tmir.Capture_analysis.analyze (Lazy.force app.App.model)
      in
      Format.printf "%a@." Captured_tmir.Capture_analysis.pp analysis;
      `Ok ()

let app_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"APP" ~doc:"Workload name (see `stamp_run list`).")

let config_arg =
  Arg.(value & opt string "baseline"
       & info [ "config"; "c" ] ~docv:"CONFIG"
           ~doc:("Configuration, as Config.to_string spells it: "
                 ^ Manpage.escape (Config.grammar ())
                 ^ "; e.g. tree+fp+tv+ebr.  Faults are for testing only: \
                    verification may fail, which is the point."))

let scale_arg =
  Arg.(value & opt string "bench"
       & info [ "scale"; "s" ] ~docv:"SCALE" ~doc:"test | bench | large")

(* A thread count the engine takes: 1 to [Stats.max_tids]; anything else
   is rejected with cmdliner's exit 124 before a run starts. *)
let threads_conv =
  Arg.conv
    ( (fun s ->
        match int_of_string_opt s with
        | Some n when n >= 1 && n <= Stats.max_tids -> Ok n
        | _ ->
            Error
              (`Msg
                 (Printf.sprintf "%s is not a thread count in 1..%d" s
                    Stats.max_tids))),
      Format.pp_print_int )

let threads_arg =
  Arg.(value & opt threads_conv 16
       & info [ "threads"; "t" ] ~docv:"N"
           ~doc:(Printf.sprintf "Logical threads, 1 to %d." Stats.max_tids))

let native_arg =
  Arg.(value & flag
       & info [ "native" ]
           ~doc:"Run on real domains (wall-clock) instead of the simulator.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Simulator seed.")

let json_arg =
  Arg.(value & flag
       & info [ "json" ] ~doc:"Emit one JSON object instead of the text report.")

let wal_dir_arg =
  Arg.(value & opt string ""
       & info [ "wal" ] ~docv:"DIR"
           ~doc:"Durable transactions: mirror every committed write set to \
                 a write-ahead log under $(docv) (implies the +wal config \
                 token).  Captured writes are elided from the log \
                 (wal_skips); allocation payload images cover them.")

let wal_pos_arg =
  Arg.(required & pos 0 (some string) None
       & info [] ~docv:"DIR" ~doc:"Directory holding wal.log.")

let run_term =
  Term.(ret (const run_cmd $ app_arg $ config_arg $ scale_arg $ threads_arg
             $ native_arg $ seed_arg $ wal_dir_arg $ json_arg))

let recover_term =
  Term.(ret (const recover_cmd $ wal_pos_arg $ json_arg))

let cmds =
  [
    Cmd.v (Cmd.info "run" ~doc:"Run one workload") run_term;
    Cmd.v (Cmd.info "list" ~doc:"List workloads") Term.(ret (const list_cmd $ const ()));
    Cmd.v (Cmd.info "analyze" ~doc:"Print the compiler capture-analysis verdicts for a workload's IR model")
      Term.(ret (const analyze_cmd $ app_arg));
    Cmd.v
      (Cmd.info "recover"
         ~doc:"Replay the write-ahead log a `stamp_run run --wal DIR` \
               left (crashed or not) and report the restored state")
      recover_term;
  ]

let () =
  let info =
    Cmd.info "stamp_run" ~version:"1.0"
      ~doc:"Captured-memory STM workload runner (SPAA 2009 reproduction)"
  in
  exit (Cmd.eval (Cmd.group info cmds))
