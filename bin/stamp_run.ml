(* CLI front end: run any STAMP workload under any capture-analysis
   configuration, on the deterministic simulator or native domains, and
   print the full statistics.

   Examples:
     stamp_run list
     stamp_run run vacation-high --config tree --threads 16
     stamp_run run yada --config compiler --scale large --native
     stamp_run analyze bayes *)

module Config = Captured_stm.Config
module Cm = Captured_stm.Cm
module Fault = Captured_stm.Fault
module Wal = Captured_stm.Wal
module Engine = Captured_stm.Engine
module Stats = Captured_stm.Stats
module Alloc_log = Captured_core.Alloc_log
module App = Captured_apps.App
module Registry = Captured_apps.Registry
open Cmdliner

let config_of_name ~scope = function
  | "baseline" -> Ok Config.baseline
  | "tree" -> Ok (Config.runtime ~scope Alloc_log.Tree)
  | "array" -> Ok (Config.runtime ~scope Alloc_log.Array)
  | "filter" | "filtering" -> Ok (Config.runtime ~scope Alloc_log.Filter)
  | "hybrid" -> Ok (Config.runtime_hybrid ~scope Alloc_log.Tree)
  | "compiler" -> Ok Config.compiler
  | "audit" -> Ok Config.audit
  | other -> Error (Printf.sprintf "unknown config %s" other)

let scope_of_name = function
  | "full" -> Ok Config.full_scope
  | "write" -> Ok Config.write_only_scope
  | "heap-write" -> Ok Config.heap_write_only_scope
  | other -> Error (Printf.sprintf "unknown scope %s" other)

let scale_of_name = function
  | "test" -> Ok App.Test
  | "bench" -> Ok App.Bench
  | "large" -> Ok App.Large
  | other -> Error (Printf.sprintf "unknown scale %s" other)

(* Orec table geometry: runs that differ only in table size behave
   differently under contention, so every report names it. *)
let orec_records config = 1 lsl config.Config.orec_bits

let print_json ~app ~config ~threads (r : Engine.result) ~native =
  Printf.printf
    "{\"app\":\"%s\",\"config\":\"%s\",\"threads\":%d,\"backend\":\"%s\",\
     \"mode\":\"%s\",\"orecs\":%d,%s,\"makespan\":%d,\
     \"wall_ms\":%.3f,\"per_thread_wall_ms\":[%s]}\n"
    app (Config.name config) threads
    (if native then "native" else "sim")
    (Config.mode_name config) (orec_records config)
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

let cm_of_name name =
  match Cm.policy_of_name name with
  | Some p -> Ok p
  | None ->
      Error
        (Printf.sprintf "unknown contention-management policy %s (known: %s)"
           name
           (String.concat " " (List.map Cm.policy_name Cm.all_policies)))

let fault_of_name = function
  | "" -> Ok None
  | name -> (
      match Fault.of_name name with
      | Some f -> Ok (Some f)
      | None ->
          Error
            (Printf.sprintf "unknown fault %s (known: %s)" name
               (String.concat " " Fault.names)))

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

let run_cmd app_name config_name scope_name scale_name threads native seed
    fastpath tvalidate lazy_ fences ebr cm_name fuel
    fault_name wal_dir wal_group recover json =
  let ( let* ) = Result.bind in
  let outcome =
    let* scope = scope_of_name scope_name in
    let* config = config_of_name ~scope config_name in
    let config = if fastpath then Config.with_fastpath config else config in
    let config = if tvalidate then Config.with_tvalidate config else config in
    let config = if lazy_ then Config.with_lazy config else config in
    let config = if fences then Config.with_fences config else config in
    let config = if ebr then Config.with_ebr config else config in
    let* cm = cm_of_name cm_name in
    let config = Config.with_cm cm config in
    let* config =
      if fuel < 0 then Error "negative --fuel"
      else Ok (Config.with_fuel fuel config)
    in
    let* fault = fault_of_name fault_name in
    let config = Config.with_fault fault config in
    let* config =
      if wal_dir = "" then Ok config
      else if wal_group < 1 then Error "--wal-group must be >= 1"
      else Ok (Config.with_durable ~group:wal_group config)
    in
    let* () =
      match fault with
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
          Printf.printf "%s [%s, %d threads, %s, %s, %d orecs]\n\n"
            app.App.name (Config.name config) threads scale_name
            (if native then "native domains" else "simulator")
            (orec_records config);
        let mode = if native then `Native else `Sim seed in
        let wal_dir_opt = if wal_dir = "" then None else Some wal_dir in
        let after_run () =
          if recover && wal_dir <> "" then
            let* rc =
              Result.map_error (fun m -> "recovery: " ^ m)
                (Wal.recover_dir wal_dir)
            in
            Ok (print_recovery ~json wal_dir rc)
          else Ok ()
        in
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
            after_run ()
        | `Crashed tid ->
            (* Injected crash-point fired: the durable prefix mirrored to
               --wal DIR is all that survives, exactly like a real
               process death. *)
            if not json then
              Printf.printf
                "simulated crash on thread %d (%s); durable log left in \
                 %s\n"
                tid fault_name wal_dir
            else if not recover then
              Printf.printf
                "{\"app\":\"%s\",\"crashed\":true,\"fault\":\"%s\",\
                 \"tid\":%d,\"wal\":\"%s\"}\n"
                app.App.name fault_name tid wal_dir;
            after_run ())
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
           ~doc:"baseline | tree | array | filter | hybrid | compiler | audit")

let scope_arg =
  Arg.(value & opt string "full"
       & info [ "scope" ] ~docv:"SCOPE"
           ~doc:"Runtime-check scope: full | write | heap-write")

let scale_arg =
  Arg.(value & opt string "bench"
       & info [ "scale"; "s" ] ~docv:"SCALE" ~doc:"test | bench | large")

let threads_arg =
  Arg.(value & opt int 16 & info [ "threads"; "t" ] ~docv:"N" ~doc:"Logical threads.")

let native_arg =
  Arg.(value & flag
       & info [ "native" ]
           ~doc:"Run on real domains (wall-clock) instead of the simulator.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Simulator seed.")

let fastpath_arg =
  Arg.(value & flag
       & info [ "fastpath" ]
           ~doc:"Hierarchical capture-check fast path (bounds summary, MRU \
                 block cache, adaptive array-to-tree promotion).")

let tvalidate_arg =
  Arg.(value & flag
       & info [ "tvalidate" ]
           ~doc:"Timestamp-based validation (global version clock, O(1) \
                 snapshot checks, snapshot extension, read-only commit \
                 fast path).")

let lazy_arg =
  Arg.(value & flag
       & info [ "lazy" ]
           ~doc:"Lazy versioning (deferred update): write barriers buffer \
                 values in a per-transaction redo table instead of \
                 acquiring ownership records; commit acquires the write \
                 set, validates, publishes and releases.  Captured writes \
                 bypass the buffer entirely (redo_skips).")

let fences_arg =
  Arg.(value & flag
       & info [ "fences" ]
           ~doc:"Debug: full memory fence between the read barrier's data \
                 load and its confirming orec load.  The STM is argued \
                 correct without it (DESIGN.md, memory-model section); \
                 use to separate ordering bugs from logic bugs on native \
                 runs.")

let ebr_arg =
  Arg.(value & flag
       & info [ "ebr" ]
           ~doc:"Epoch-based reclamation (+ebr): committed transactional \
                 frees park in a per-thread limbo list and return to the \
                 allocator only after two grace periods, so no concurrent \
                 attempt can read a recarved block.  Adds the limbo / \
                 epoch-advance / reclaim-stall counters to the report.")

let cm_arg =
  Arg.(value & opt string "backoff"
       & info [ "cm" ] ~docv:"POLICY"
           ~doc:"Contention-management policy: backoff | karma | timestamp.")

let fuel_arg =
  Arg.(value & opt int 0
       & info [ "fuel" ] ~docv:"N"
           ~doc:"Validation fuel per transaction attempt (0 = disabled): \
                 every transactional operation burns one unit and \
                 exhaustion forces a revalidation, bounding zombie \
                 execution.")

let fault_arg =
  Arg.(value & opt string ""
       & info [ "fault" ] ~docv:"NAME"
           ~doc:"Inject a structured fault (skip-validation | stale-read | \
                 delayed-unlock | spurious-abort | alloc-log-drop | \
                 clock-stall | redo-drop | publish-partial | \
                 premature-reuse). Testing only: verification may fail, \
                 which is the point.")

let json_arg =
  Arg.(value & flag
       & info [ "json" ] ~doc:"Emit one JSON object instead of the text report.")

let wal_dir_arg =
  Arg.(value & opt string ""
       & info [ "wal" ] ~docv:"DIR"
           ~doc:"Durable transactions: mirror every committed write set to \
                 a write-ahead log under $(docv) (implies the +wal config \
                 suffix).  Captured writes are elided from the log \
                 (wal_skips); allocation payload images cover them.")

let wal_group_arg =
  Arg.(value & opt int 4
       & info [ "wal-group" ] ~docv:"N"
           ~doc:"Group commit: fsync once per N commit records (1 = every \
                 commit).")

let recover_arg =
  Arg.(value & flag
       & info [ "recover" ]
           ~doc:"After the run (or the injected crash), replay the log \
                 from the last checkpoint and report what recovery \
                 restored.")

let wal_pos_arg =
  Arg.(required & pos 0 (some string) None
       & info [] ~docv:"DIR" ~doc:"Directory holding wal.log.")

let run_term =
  Term.(ret (const run_cmd $ app_arg $ config_arg $ scope_arg $ scale_arg
             $ threads_arg $ native_arg $ seed_arg
             $ fastpath_arg $ tvalidate_arg $ lazy_arg $ fences_arg
             $ ebr_arg $ cm_arg $ fuel_arg
             $ fault_arg $ wal_dir_arg $ wal_group_arg $ recover_arg
             $ json_arg))

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
         ~doc:"Replay a write-ahead log left by a crashed `stamp_run run \
               --wal DIR` and report the restored state")
      recover_term;
  ]

let () =
  let info =
    Cmd.info "stamp_run" ~version:"1.0"
      ~doc:"Captured-memory STM workload runner (SPAA 2009 reproduction)"
  in
  exit (Cmd.eval (Cmd.group info cmds))
