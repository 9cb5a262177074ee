(* stamp_check: schedule exploration with the opacity oracle.

   Sweeps workloads (micro workloads and/or registered STAMP apps) across
   STM configurations and exploration strategies, checking every explored
   schedule with the opacity oracle.  Exit status 0 means every schedule
   passed — or, in fault-injection mode (--fault / --inject-bug), that
   the injected fault met its expectation: Contained faults must produce
   zero violations, Flagged faults must be detected by the oracle without
   any exception escaping a fiber. *)

module Config = Captured_stm.Config
module Fault = Captured_stm.Fault
module Strategy = Captured_check.Strategy
module Harness = Captured_check.Harness
module Oracle = Captured_check.Oracle
module Workloads = Captured_check.Workloads

let analysis_of_name = function
  | "baseline" -> Some Config.baseline
  | "tree" -> Some (Config.runtime Captured_core.Alloc_log.Tree)
  | "array" -> Some (Config.runtime Captured_core.Alloc_log.Array)
  | "filter" -> Some (Config.runtime Captured_core.Alloc_log.Filter)
  | _ -> None

let mode_of_name = function
  (* (fastpath, tvalidate, lazy_versioning) *)
  | "base" -> Some (false, false, false)
  | "fp" -> Some (true, false, false)
  | "tv" -> Some (false, true, false)
  | "fptv" -> Some (true, true, false)
  | "lazy" -> Some (false, false, true)
  | "fplazy" -> Some (true, false, true)
  | "tvlazy" -> Some (false, true, true)
  | "fptvlazy" -> Some (true, true, true)
  | _ -> None

let split_csv s =
  String.split_on_char ',' s |> List.map String.trim
  |> List.filter (fun x -> x <> "")

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let report_json (r : Harness.report) union =
  Printf.sprintf
    "{\"workload\":\"%s\",\"config\":\"%s\",\"strategy\":\"%s\",\"runs\":%d,\"new_schedules\":%d,\"union_distinct\":%d,\"truncated\":%d,\"crashes\":%d,\"dfrees\":%d,\"forwarded\":%d,\"violations\":%d%s}"
    (json_escape r.Harness.workload)
    (json_escape r.Harness.config)
    r.Harness.strategy r.Harness.runs r.Harness.distinct union
    r.Harness.truncated r.Harness.crashes r.Harness.total_dfrees
    r.Harness.total_forwarded r.Harness.violations
    (match r.Harness.first with
    | None -> ""
    | Some f ->
        Printf.sprintf ",\"first\":\"%s\",\"minimized\":\"%s\""
          (json_escape (Oracle.violation_to_string f.Harness.violation))
          (json_escape (Strategy.interventions_to_string f.Harness.minimized)))

(* Crash matrix: every crash-point fault x a spread of STM modes, all
   durable, judged by the recovery oracle.  Zero violations means every
   simulated process death replayed to a prefix-consistent state. *)
let crash_matrix nthreads runs seed max_steps persist pct_depth json =
  let ( %> ) f g x = g (f x) in
  (* Crash faults draw from the *thread* PRNG (seeded by the world
     seed), so whether a given commit crashes is a property of the world
     seed, not the schedule.  Sweeping several world seeds per cell is
     what makes every crash point actually fire. *)
  let runs = if runs = 0 then 8 else runs in
  let world_seeds = List.init 5 (fun i -> seed + (31 * i)) in
  let faults =
    [
      Fault.Crash_pre_commit;
      Fault.Crash_mid_publish;
      Fault.Crash_post_publish;
      Fault.Crash_mid_checkpoint;
      Fault.Torn_wal_record;
    ]
  in
  let base = Config.runtime Captured_core.Alloc_log.Tree in
  let modes =
    [
      ("eager", fun c -> c);
      ("lazy", Config.with_lazy ~on:true);
      ("fptv",
       fun c ->
         c |> Config.with_fastpath ~on:true |> Config.with_tvalidate ~on:true);
      ("lazy+tv", Config.with_lazy ~on:true %> Config.with_tvalidate ~on:true);
      (* +ebr legs: crash while deferred frees sit in limbo — recovery
         must apply exactly the durably-freed set (never materialize a
         still-limbo block as free, never leak a durably freed one).
         lazy+tv+ebr is the durable benchmark's family (intruder-durable:
         lazy, Global clock, WAL, EBR). *)
      ("eager+ebr", Config.with_ebr ~on:true);
      ("lazy+tv+ebr",
       Config.with_lazy ~on:true %> Config.with_tvalidate ~on:true
       %> Config.with_ebr ~on:true);
    ]
  in
  let workload_names = [ "counter"; "bank"; "publish" ] in
  let strategies =
    [ Strategy.Random { persist }; Strategy.Pct { depth = pct_depth } ]
  in
  let failures = ref 0
  and vacuous = ref 0
  and crashes = ref 0
  and total_runs = ref 0
  and cells = ref 0 in
  List.iter
    (fun fault ->
      List.iter
        (fun (_mname, modify) ->
          let config =
            base |> modify
            |> Config.with_fault (Some fault)
            |> Config.with_durable
          in
          (* The reclaim workload rides only in the [+ebr] cells: without
             EBR its frees race readers by design and the live oracle
             would (correctly) go red before recovery is even at issue. *)
          let workload_names =
            if config.Config.ebr then workload_names @ [ "free_race" ]
            else workload_names
          in
          List.iter
            (fun wname ->
              let w = Option.get (Workloads.find wname ~nthreads) in
              incr cells;
              let cell_runs = ref 0
              and cell_crashes = ref 0
              and cell_viol = ref 0
              and cell_distinct = ref 0
              and first = ref None in
              List.iter
                (fun strategy ->
                  List.iter
                    (fun wseed ->
                      let r =
                        Harness.explore ~workload:w ~config ~strategy ~runs
                          ~seed:wseed ~max_steps ()
                      in
                      cell_runs := !cell_runs + r.Harness.runs;
                      cell_crashes := !cell_crashes + r.Harness.crashes;
                      cell_viol := !cell_viol + r.Harness.violations;
                      cell_distinct := !cell_distinct + r.Harness.distinct;
                      if !first = None then first := r.Harness.first)
                    world_seeds)
                strategies;
              total_runs := !total_runs + !cell_runs;
              crashes := !crashes + !cell_crashes;
              if !cell_viol > 0 then incr failures;
              (* A cell whose fault never fired proved nothing. *)
              if !cell_crashes = 0 then incr vacuous;
              if json then
                Printf.printf
                  "{\"fault\":\"%s\",\"config\":\"%s\",\"workload\":\"%s\",\
                   \"runs\":%d,\"crashes\":%d,\"violations\":%d}\n"
                  (Fault.name fault) (Config.name config) w.Workloads.name
                  !cell_runs !cell_crashes !cell_viol
              else
                Printf.printf "%-24s %-34s %-14s runs=%-4d crashes=%-4d %s\n"
                  (Fault.name fault) (Config.name config) w.Workloads.name
                  !cell_runs !cell_crashes
                  (if !cell_viol = 0 then
                     if !cell_crashes = 0 then "VACUOUS (never fired)"
                     else "ok"
                   else
                     match !first with
                     | Some f ->
                         Printf.sprintf "VIOLATIONS=%d first=%s" !cell_viol
                           (Oracle.violation_to_string f.Harness.violation)
                     | None -> Printf.sprintf "VIOLATIONS=%d" !cell_viol))
            workload_names)
        modes)
    faults;
  if not json then
    Printf.printf
      "crash matrix: %d runs, %d injected crashes recovered over %d \
       fault*mode*workload cells\n"
      !total_runs !crashes !cells;
  if !failures > 0 then
    `Error
      ( false,
        Printf.sprintf
          "%d crash-matrix cells found recovery violations (see above)"
          !failures )
  else if !vacuous > 0 then
    `Error
      ( false,
        Printf.sprintf
          "%d crash-matrix cells never fired their crash fault (vacuous)"
          !vacuous )
  else `Ok ()

let sweep workloads_csv apps_csv nthreads analysis_name modes_csv
    strategies_csv runs seed max_steps persist pct_depth dfs_preemptions
    min_distinct fault_name inject_bug wal wal_bug ebr_flag min_dfrees
    crash_matrix_flag json smoke =
  if crash_matrix_flag then
    crash_matrix nthreads runs seed max_steps persist pct_depth json
  else
  let runs = if smoke && runs = 0 then 600 else if runs = 0 then 400 else runs
  and min_distinct = if smoke && min_distinct = 0 then 1000 else min_distinct in
  match
    match (fault_name, inject_bug) with
    | "", false -> Ok None
    | "", true -> Ok (Some Fault.Skip_validation)
    | name, _ -> (
        match Fault.of_name name with
        | Some f -> Ok (Some f)
        | None ->
            Error
              (Printf.sprintf "unknown fault %S (known: %s)" name
                 (String.concat ", " Fault.names)))
  with
  | Error msg -> `Error (false, msg)
  | Ok fault ->
  (* premature-reuse only exists on the commit-time deferred-free path:
     the fault requires +ebr (it skips the grace period EBR imposes) and
     a workload that actually frees across threads. *)
  let ebr = ebr_flag || fault = Some Fault.Premature_reuse in
  (* The zombie workloads' spins are bounded only by correct validation —
     the one thing the injected faults deliberately break — so fault
     sweeps leave them out of the default set. *)
  let workload_names =
    if workloads_csv = "" && apps_csv = "" then
      if fault = Some Fault.Premature_reuse then [ "free_race" ]
      else
        [ "counter"; "bank"; "publish"; "scoped" ]
        @ (if fault = None then [ "zombie"; "zombie_reread"; "zombie_owned" ]
           else [])
    else split_csv workloads_csv
  in
  let resolve name =
    match Workloads.find name ~nthreads with
    | Some w -> Ok w
    | None -> Error (Printf.sprintf "unknown workload %S" name)
  in
  let rec resolve_all acc = function
    | [] -> Ok (List.rev acc)
    | n :: rest -> (
        match resolve n with
        | Ok w -> resolve_all (w :: acc) rest
        | Error _ as e -> e)
  in
  match resolve_all [] (workload_names @ split_csv apps_csv) with
  | Error msg -> `Error (false, msg)
  | Ok workloads -> (
      match analysis_of_name analysis_name with
      | None ->
          `Error
            (false, Printf.sprintf "unknown analysis %S" analysis_name)
      | Some base -> (
          let modes =
            List.filter_map
              (fun m ->
                match mode_of_name m with
                | Some fptv -> Some (m, fptv)
                | None -> None)
            @@ split_csv modes_csv
          in
          let strategies =
            List.filter_map
              (fun s ->
                match s with
                | "random" -> Some (Strategy.Random { persist })
                | "pct" -> Some (Strategy.Pct { depth = pct_depth })
                | "dfs" -> Some (Strategy.Dfs { preemptions = dfs_preemptions })
                | _ -> None)
            @@ split_csv strategies_csv
          in
          if modes = [] then `Error (false, "no valid modes")
          else if strategies = [] then `Error (false, "no valid strategies")
          else begin
            let failures = ref 0
            and caught = ref 0
            and crashed = ref 0
            and vacuous = ref 0
            and hung = ref 0
            and total_runs = ref 0
            and total_distinct = ref 0
            and shallow = ref [] in
            List.iter
              (fun w ->
                List.iter
                  (fun (_mname, (fp, tv, lz)) ->
                    let durable =
                      wal || wal_bug
                      || match fault with
                         | Some f -> Fault.is_crash f
                         | None -> false
                    in
                    let config =
                      base
                      |> Config.with_fastpath ~on:fp
                      |> Config.with_tvalidate ~on:tv
                      |> Config.with_lazy ~on:lz
                      |> Config.with_fault fault
                      |> Config.with_durable ~on:durable
                      |> Config.with_ebr ~on:ebr
                    in
                    let seen = Hashtbl.create (8 * runs) in
                    let cell_dfrees = ref 0 and cell_forwarded = ref 0 in
                    (* Crash-point faults (and the seeded recovery bug)
                       draw from the thread PRNG: whether a commit
                       crashes depends on the world seed, not the
                       schedule, so those sweeps spread their run budget
                       over several world seeds. *)
                    let world_seeds, runs_per_seed =
                      if durable then
                        (List.init 5 (fun i -> seed + (31 * i)),
                         max 1 (runs / 5))
                      else ([ seed ], runs)
                    in
                    List.iter
                      (fun strategy ->
                      List.iter
                        (fun wseed ->
                        let r =
                          Harness.explore ~workload:w ~config ~strategy
                            ~runs:runs_per_seed ~seed:wseed ~max_steps
                            ~wal_bug ~seen ()
                        in
                        total_runs := !total_runs + r.Harness.runs;
                        cell_dfrees := !cell_dfrees + r.Harness.total_dfrees;
                        cell_forwarded :=
                          !cell_forwarded + r.Harness.total_forwarded;
                        (match r.Harness.first with
                        | Some f
                          when f.Harness.violation.Oracle.kind
                               = "fiber-exception" ->
                            incr crashed
                        | _ -> ());
                        if r.Harness.truncated > 0 then begin
                          incr hung;
                          if not json then
                            Printf.printf
                              "FAIL %s %s %s: %d truncated runs (possible \
                               livelock; raise --max-steps if legitimate)\n"
                              w.Workloads.name (Config.name config)
                              r.Harness.strategy r.Harness.truncated
                        end;
                        if r.Harness.violations > 0 then begin
                          if fault <> None then begin
                            incr caught;
                            match r.Harness.first with
                            | Some f ->
                                shallow :=
                                  (w.Workloads.name,
                                   List.length f.Harness.minimized)
                                  :: !shallow
                            | None -> ()
                          end
                          else incr failures
                        end;
                        if json then
                          print_endline (report_json r (Hashtbl.length seen))
                        else print_endline (Harness.report_to_string r))
                        world_seeds)
                      strategies;
                    let union = Hashtbl.length seen in
                    total_distinct := !total_distinct + union;
                    (* Vacuity floor: a reclaim cell that never executed
                       a deferred free proved nothing about reuse. *)
                    if !cell_dfrees < min_dfrees then begin
                      incr vacuous;
                      if not json then
                        Printf.printf
                          "FAIL %s %s: %d deferred frees < %d required \
                           (vacuous reclaim cell)\n"
                          w.Workloads.name (Config.name config) !cell_dfrees
                          min_dfrees
                    end;
                    (* Likewise the read-forwarding workload's floor. *)
                    let min_forwarded = Workloads.min_forwarded w in
                    if !cell_forwarded < min_forwarded then begin
                      incr vacuous;
                      if not json then
                        Printf.printf
                          "FAIL %s %s: %d forwarded reads < %d required \
                           (vacuous reread cell)\n"
                          w.Workloads.name (Config.name config)
                          !cell_forwarded min_forwarded
                    end;
                    if fault = None && union < min_distinct then begin
                      incr failures;
                      if not json then
                        Printf.printf
                          "FAIL %s %s: %d distinct schedules < %d required\n"
                          w.Workloads.name (Config.name config) union
                          min_distinct
                    end)
                  modes)
              workloads;
            if not json then
              Printf.printf
                "total: %d runs, %d distinct schedules across %d workload×config cells\n"
                !total_runs !total_distinct
                (List.length workloads * List.length modes);
            if !hung > 0 then
              `Error
                ( false,
                  Printf.sprintf
                    "%d cells truncated runs (possible livelock)" !hung )
            else if !vacuous > 0 then
              `Error
                ( false,
                  Printf.sprintf
                    "%d vacuous cells: below the --min-dfrees floor, or a \
                     forwarding workload that forwarded no read"
                    !vacuous )
            else
              match fault with
              | Some f -> (
                  let fname = Fault.name f in
                  match
                    if wal_bug then Fault.Flagged else Fault.expectation f
                  with
                  | Fault.Contained ->
                      if !caught > 0 then
                        `Error
                          ( false,
                            Printf.sprintf
                              "fault %s escaped containment: violations in \
                               %d strategy runs"
                              fname !caught )
                      else `Ok ()
                  | Fault.Flagged ->
                      if !crashed > 0 then
                        `Error
                          ( false,
                            Printf.sprintf
                              "fault %s: exceptions escaped fibers in %d \
                               runs (sandbox failed)"
                              fname !crashed )
                      else if !caught = 0 then
                        `Error
                          ( false,
                            Printf.sprintf
                              "injected fault %s was NOT flagged by any \
                               strategy"
                              fname )
                      else begin
                        if not json then
                          List.iter
                            (fun (w, n) ->
                              Printf.printf
                                "flagged injected fault on %s (minimized to \
                                 %d interventions)\n"
                                w n)
                            !shallow;
                        `Ok ()
                      end)
              | None ->
                  if !failures > 0 then
                    `Error
                      ( false,
                        Printf.sprintf "%d failing cells (see above)"
                          !failures )
                  else `Ok ()
          end))

open Cmdliner

let workloads_arg =
  let doc =
    "Comma-separated micro workloads (counter, bank, publish, scoped, \
     zombie, zombie_reread, zombie_owned, reread, free_race, \
     privatize_race).  Default: the first seven — fault sweeps drop the \
     three zombies, whose termination depends on the validation \
     machinery faults break (unless $(b,--apps) is given alone); reread, \
     the read-forwarding workload, fails any cell that forwarded no read; \
     the reclaim pair is red by design without $(b,--ebr) and must be \
     named explicitly."
  in
  Arg.(value & opt string "" & info [ "workloads"; "w" ] ~docv:"NAMES" ~doc)

let apps_arg =
  let doc = "Comma-separated registered STAMP apps to sweep (Test scale)." in
  Arg.(value & opt string "" & info [ "apps" ] ~docv:"NAMES" ~doc)

let threads_arg =
  let doc = "Simulated threads per workload." in
  Arg.(value & opt int 2 & info [ "threads"; "t" ] ~docv:"N" ~doc)

let analysis_arg =
  let doc = "Base analysis: baseline, tree, array or filter." in
  Arg.(value & opt string "tree" & info [ "analysis" ] ~docv:"NAME" ~doc)

let modes_arg =
  let doc =
    "STM mode combinations to sweep: base, fp (+fastpath), tv (+timestamp \
     validation), fptv (both), plus lazy-versioning variants lazy, \
     fplazy, tvlazy, fptvlazy (deferred-update redo buffer)."
  in
  Arg.(
    value & opt string "base,fp,tv,fptv" & info [ "modes" ] ~docv:"NAMES" ~doc)

let strategies_arg =
  let doc = "Exploration strategies: random, pct, dfs." in
  Arg.(
    value
    & opt string "random,pct,dfs"
    & info [ "strategies"; "s" ] ~docv:"NAMES" ~doc)

let runs_arg =
  let doc = "Schedules per strategy per workload×config (0 = default 400)." in
  Arg.(value & opt int 0 & info [ "runs"; "n" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Base PRNG seed (the sweep is deterministic given the seed)." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc)

let max_steps_arg =
  let doc = "Scheduler decision budget per run before truncation." in
  Arg.(value & opt int 200_000 & info [ "max-steps" ] ~docv:"N" ~doc)

let persist_arg =
  let doc = "Random walk: percent chance to keep running at consume points." in
  Arg.(value & opt int 85 & info [ "persist" ] ~docv:"PCT" ~doc)

let pct_depth_arg =
  let doc = "PCT bug depth d (d - 1 priority-change points)." in
  Arg.(value & opt int 3 & info [ "pct-depth" ] ~docv:"N" ~doc)

let dfs_preemptions_arg =
  let doc = "DFS preemption bound." in
  Arg.(value & opt int 2 & info [ "dfs-preemptions" ] ~docv:"N" ~doc)

let min_distinct_arg =
  let doc =
    "Fail unless every workload×config cell explores at least N distinct \
     schedules across its strategies (0 = no floor)."
  in
  Arg.(value & opt int 0 & info [ "min-distinct" ] ~docv:"N" ~doc)

let fault_arg =
  let doc =
    "Inject a structured fault (skip-validation, stale-read, \
     delayed-unlock, spurious-abort, alloc-log-drop, clock-stall, \
     redo-drop, publish-partial, premature-reuse) and \
     judge the sweep by the fault's expectation: $(i,contained) faults \
     must produce zero violations, $(i,flagged) faults must be detected \
     by the oracle with no exception escaping a fiber."
  in
  Arg.(value & opt string "" & info [ "fault" ] ~docv:"NAME" ~doc)

let inject_bug_arg =
  let doc =
    "Canary mode: shorthand for $(b,--fault skip-validation) — succeed \
     only if the oracle catches the validation-skipping bug."
  in
  Arg.(value & flag & info [ "inject-bug" ] ~doc)

let wal_arg =
  let doc =
    "Run every cell with durable transactions (+wal): each run mirrors \
     commits to an in-memory log device, and clean runs additionally get \
     a full crash-free replay checked by the recovery oracle — proving \
     +wal sweeps stay silent."
  in
  Arg.(value & flag & info [ "wal" ] ~doc)

let wal_bug_arg =
  let doc =
    "Checker self-test: seed a recovery bug (replay the torn tail record \
     as if it were whole) and require the recovery oracle to flag it.  \
     Pair with $(b,--fault torn-wal-record)."
  in
  Arg.(value & flag & info [ "wal-bug-torn" ] ~doc)

let ebr_arg =
  let doc =
    "Run every cell with epoch-based reclamation (+ebr): deferred frees \
     park in per-thread limbo lists for two grace periods before the \
     allocator may reuse them, and the oracle's use-after-free rule is \
     armed.  Implied by $(b,--fault premature-reuse)."
  in
  Arg.(value & flag & info [ "ebr" ] ~doc)

let min_dfrees_arg =
  let doc =
    "Fail any workload×config cell whose runs executed fewer than N \
     deferred frees in total — the reclaim sweeps' vacuity floor (a \
     cell that never freed proves nothing about reuse safety)."
  in
  Arg.(value & opt int 0 & info [ "min-dfrees" ] ~docv:"N" ~doc)

let crash_matrix_arg =
  let doc =
    "Sweep every crash-point fault (crash-pre-commit, crash-mid-publish, \
     crash-post-publish, crash-mid-checkpoint, torn-wal-record) across \
     eager, lazy, fptv, lazy+tv and the +ebr pair of durable \
     configurations (the +ebr cells add the free_race workload, so \
     crashes land while frees sit in limbo); every simulated death must \
     recover to a prefix-consistent state (zero violations)."
  in
  Arg.(value & flag & info [ "crash-matrix" ] ~doc)

let json_arg =
  let doc = "Emit one JSON object per report line." in
  Arg.(value & flag & info [ "json" ] ~doc)

let smoke_arg =
  let doc =
    "Smoke preset: defaults $(b,--min-distinct) to 1000 (CI acceptance \
     floor)."
  in
  Arg.(value & flag & info [ "smoke" ] ~doc)

let cmd =
  let doc = "systematic concurrency testing for the STM" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Explores thread interleavings of small transactional workloads \
         under a controlled scheduler and checks every run against an \
         opacity oracle (snapshot consistency, lost updates, read \
         coherence, final state, workload invariants).  Any violation is \
         minimized with delta debugging to a short intervention list that \
         replays deterministically.";
      `S Manpage.s_examples;
      `P "Full smoke sweep (what CI runs):";
      `Pre "  stamp_check --smoke --seed 1";
      `P "Check the checker catches an injected lost-update bug:";
      `Pre "  stamp_check --inject-bug -w counter -s random,dfs";
      `P "Sweep one structured fault (what the CI fault matrix runs):";
      `Pre "  stamp_check --fault stale-read --seed 1";
      `P "Sweep a STAMP app:";
      `Pre "  stamp_check --apps vacation-low -n 100 --min-distinct 0";
      `P "Crash matrix — every crash point must recover cleanly:";
      `Pre "  stamp_check --crash-matrix --seed 1";
      `P "Recovery-oracle self-test — a seeded replay bug must be flagged:";
      `Pre "  stamp_check --fault torn-wal-record --wal-bug-torn -w bank";
      `P "Reclaim sweep — use-after-free rule armed, reuse gated on epochs:";
      `Pre
        "  stamp_check -w free_race,privatize_race --ebr -s random,pct \
         --min-dfrees 1";
      `P "Premature-reuse fault — the oracle must flag the skipped grace:";
      `Pre "  stamp_check --fault premature-reuse";
    ]
  in
  Cmd.v
    (Cmd.info "stamp_check" ~doc ~man)
    Term.(
      ret
        (const sweep $ workloads_arg $ apps_arg $ threads_arg $ analysis_arg
       $ modes_arg $ strategies_arg $ runs_arg $ seed_arg $ max_steps_arg
       $ persist_arg $ pct_depth_arg $ dfs_preemptions_arg $ min_distinct_arg
       $ fault_arg $ inject_bug_arg $ wal_arg $ wal_bug_arg $ ebr_arg
       $ min_dfrees_arg $ crash_matrix_arg $ json_arg $ smoke_arg))

let () = exit (Cmd.eval cmd)
