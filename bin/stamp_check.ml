(* stamp_check: schedule exploration with the opacity oracle.

   Sweeps workloads (micro workloads and/or registered STAMP apps) across
   STM configurations and exploration strategies, checking every explored
   schedule with the opacity oracle.  Exit status 0 means every cell met
   its floors and every schedule passed — or, in fault-injection mode
   (--fault), that each injected fault met its expectation: Contained
   faults must produce zero violations, Flagged faults must be detected
   by the oracle without any exception escaping a fiber. *)

module Config = Captured_stm.Config
module Fault = Captured_stm.Fault
module Stats = Captured_stm.Stats
module Strategy = Captured_check.Strategy
module Harness = Captured_check.Harness
module Oracle = Captured_check.Oracle
module Signal = Captured_check.Signal
module Workloads = Captured_check.Workloads

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
    "{\"workload\":\"%s\",\"config\":\"%s\",\"strategy\":\"%s\",\"runs\":%d,\"new_schedules\":%d,\"union_distinct\":%d,\"truncated\":%d,\"crashes\":%d,%s\"violations\":%d%s}"
    (json_escape r.Harness.workload)
    (json_escape r.Harness.config)
    r.Harness.strategy r.Harness.runs r.Harness.distinct union
    r.Harness.truncated r.Harness.crashes
    (String.concat ""
       (List.map
          (fun (key, n) -> Printf.sprintf "\"%s\":%d," key n)
          (Signal.keyed r.Harness.signals)))
    r.Harness.violations
    (match r.Harness.first with
    | None -> ""
    | Some f ->
        Printf.sprintf ",\"first\":\"%s\",\"minimized\":\"%s\""
          (json_escape (Oracle.violation_to_string f.Harness.violation))
          (json_escape (Strategy.interventions_to_string f.Harness.minimized)))

let sweep workloads_csv apps_csv nthreads modes_csv
    strategies_csv runs seed max_steps min_distinct faults_csv json =
  let runs = if runs = 0 then 400 else runs in
  let ( let* ) = Result.bind in
  let rec all f = function
    | [] -> Ok []
    | x :: rest ->
        let* y = f x in
        let* ys = all f rest in
        Ok (y :: ys)
  in
  (* Look every name up; reject the first unknown one, listing the
     known spellings. *)
  let resolve ~what ~known lookup csv =
    all
      (fun n ->
        Option.to_result (lookup n)
          ~none:(Printf.sprintf "unknown %s %S (known: %s)" what n known))
      (split_csv csv)
  in
  let plan =
    let* modes = all Config.of_string (split_csv modes_csv) in
    let* strategies =
      resolve ~what:"strategy" ~known:"random, pct, dfs"
        (function
          | "random" -> Some Strategy.Random
          | "pct" -> Some Strategy.Pct
          | "dfs" -> Some Strategy.Dfs
          | _ -> None)
        strategies_csv
    in
    let* faults =
      if faults_csv = "" then Ok [ None ]
      else
        resolve ~what:"fault" ~known:(String.concat ", " Fault.names)
          (fun n -> Option.map Option.some (Fault.of_name n))
          faults_csv
    in
    let cells_of fault =
      (* The zombie workloads' spins are bounded only by correct
         validation — the one thing the injected faults deliberately
         break — so fault sweeps leave them out of the default set. *)
      let* workloads =
        resolve ~what:"workload"
          ~known:"the micro workloads in --help, or a registered app"
          (Workloads.find ~nthreads)
          (if workloads_csv = "" && apps_csv = "" then
             match fault with
             | Some Fault.Premature_reuse -> "free_race"
             | Some _ -> "counter,bank,publish,scoped"
             | None ->
                 "counter,bank,publish,scoped,zombie,zombie_reread,zombie_owned"
           else workloads_csv ^ "," ^ apps_csv)
      in
      (* --fault overrides a mode's own +fault:F.  Crash faults need
         the WAL. *)
      let config mode =
        let c = if fault = None then mode else Config.with_fault fault mode in
        if Option.fold ~none:false ~some:Fault.is_crash c.Config.fault then
          Config.with_durable c
        else c
      in
      Ok
        (List.concat_map
           (fun w -> List.map (fun m -> (w, config m)) modes)
           workloads)
    in
    let* cells = all cells_of faults in
    if modes = [] || strategies = [] then Error "no modes or no strategies"
    else Ok (strategies, List.concat cells)
  in
  match plan with
  | Error msg -> `Error (false, msg)
  | Ok (strategies, cells) -> (
      let on_report r ~union =
        print_endline
          (if json then report_json r union else Harness.report_to_string r)
      in
      let cells =
        List.map
          (fun (workload, config) ->
            Harness.run_cell ~max_steps ~on_report ~strategies ~runs
              ~seed ~workload ~config ())
          cells
      in
      let total f =
        List.fold_left
          (fun acc c ->
            List.fold_left (fun acc r -> acc + f r) acc c.Harness.reports)
          0 cells
      in
      if not json then
        Printf.printf
          "total: %d runs, %d distinct schedules, %d injected crashes across \
           %d workload×config cells\n%!"
          (total (fun r -> r.Harness.runs))
          (List.fold_left (fun acc c -> acc + c.Harness.union) 0 cells)
          (total (fun r -> r.Harness.crashes))
          (List.length cells);
      match Harness.verdict ~min_distinct cells with
      | Ok notes ->
          if not json then List.iter print_endline notes;
          `Ok ()
      | Error failures -> `Error (false, String.concat "\n" failures))

open Cmdliner

let workloads_arg =
  let doc =
    "Comma-separated micro workloads (counter, bank, publish, scoped, \
     zombie, zombie_reread, zombie_owned, reread, linemate, recordmix, \
     longread, rfw, rollback, free_race, privatize_race).  Default: the \
     first seven — \
     fault sweeps drop the three zombies, whose termination depends on \
     the validation machinery faults break, and $(b,--fault \
     premature-reuse) sweeps free_race alone (none when $(b,--apps) is \
     given alone).  reread, the read-forwarding workload, fails any \
     cell that forwarded no read; linemate, the value-checked-validation \
     workload, any cell that rescued no read; recordmix mixes one-word \
     and 4-word conflict granules; longread, the long-read-log lock-wait \
     workload, any cell that extended no lock wait past the spin limit; \
     rfw, any cell that acquired no orec at a read-for-write; \
     rollback (a writer's in-place store undone by its abort), any cell \
     that read no line-mate under its logged word, as reread and \
     linemate also fail; the reclaim pair (free_race, privatize_race), \
     any cell that deferred no free."
  in
  Arg.(value & opt string "" & info [ "workloads"; "w" ] ~docv:"NAMES" ~doc)

let apps_arg =
  let doc = "Comma-separated registered STAMP apps to sweep (Test scale)." in
  Arg.(value & opt string "" & info [ "apps" ] ~docv:"NAMES" ~doc)

(* A thread count the engine takes: 1 to [Stats.max_tids]; anything else
   is rejected with cmdliner's exit 124 before a sweep starts. *)
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
  let doc =
    Printf.sprintf "Simulated threads per workload, 1 to %d." Stats.max_tids
  in
  Arg.(value & opt threads_conv 2 & info [ "threads"; "t" ] ~docv:"N" ~doc)

let modes_arg =
  let doc =
    "Comma-separated configurations to sweep, spelled as stamp_run \
     $(b,--config) takes them and every JSON $(b,config) key prints them \
     (Config.to_string): a head ($(b,baseline), $(b,compiler), \
     $(b,tree), $(b,array) or $(b,filtering)), then any of $(b,+fp) \
     (capture-check fast path), $(b,+tv) (timestamp validation), \
     $(b,+lazy) (deferred-update redo buffer), $(b,+wal) (durable \
     transactions) and the other tokens stamp_run --help lists, e.g. \
     tree+fp+lazy or tree+fp+tv+lazy.  Crash faults imply +wal."
  in
  Arg.(
    value
    & opt string "tree,tree+fp,tree+tv,tree+fp+tv"
    & info [ "modes" ] ~docv:"NAMES" ~doc)

let strategies_arg =
  let doc =
    Printf.sprintf
      "Exploration strategies: random (a random walk keeping the running \
       thread %d%% of the time), pct (bug depth %d), dfs (at most %d \
       preemptions)."
      Strategy.persist Strategy.pct_depth Strategy.dfs_preemptions
  in
  Arg.(
    value
    & opt string "random,pct,dfs"
    & info [ "strategies"; "s" ] ~docv:"NAMES" ~doc)

let runs_arg =
  let doc =
    "Schedules per strategy per workload×config (0 = default 400); a \
     durable cell splits them across five world seeds."
  in
  Arg.(value & opt int 0 & info [ "runs"; "n" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Base PRNG seed (the sweep is deterministic given the seed)." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc)

let max_steps_arg =
  let doc = "Scheduler decision budget per run before truncation." in
  Arg.(value & opt int 200_000 & info [ "max-steps" ] ~docv:"N" ~doc)

let min_distinct_arg =
  let doc =
    "Fail unless every fault-free workload×config cell explores at least \
     N distinct schedules across its strategies (0 = no floor)."
  in
  Arg.(value & opt int 0 & info [ "min-distinct" ] ~docv:"N" ~doc)

let fault_arg =
  let doc =
    "Comma-separated structured faults to inject, one sweep each: "
    ^ String.concat ", " Fault.names
    ^ ".  skip-validation is the opacity oracle's canary and \
       torn-tail-replayed (a seeded replay-the-torn-tail recovery bug) \
       the recovery oracle's.  Each is judged by its own expectation: \
       $(i,contained) faults must produce zero violations, $(i,flagged) \
       faults must be detected by the oracle with no exception escaping \
       a fiber.  A crash-fault cell that never crashed fails as vacuous."
  in
  Arg.(value & opt string "" & info [ "fault" ] ~docv:"NAMES" ~doc)

let json_arg =
  let doc = "Emit one JSON object per report line." in
  Arg.(value & flag & info [ "json" ] ~doc)

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
      `Pre "  stamp_check -n 600 --min-distinct 1000 --seed 1";
      `P "Check the checker catches an injected lost-update bug:";
      `Pre "  stamp_check --fault skip-validation -w counter -s random,dfs";
      `P "Sweep structured faults (what the CI fault matrix runs):";
      `Pre "  stamp_check --fault stale-read,clock-stall --seed 1";
      `P "Sweep a STAMP app:";
      `Pre "  stamp_check --apps vacation-low -n 100";
      `P "Crash points — every simulated death must recover cleanly:";
      `Pre
        "  stamp_check --fault crash-pre-commit,torn-wal-record \
         --modes tree,tree+tv+lazy -w counter,bank -s random,pct -n 40";
      `P "Recovery-oracle self-test — a seeded replay bug must be flagged:";
      `Pre "  stamp_check --fault torn-tail-replayed -w bank";
      `P "Reclaim sweep — frees racing readers, reuse gated on epochs:";
      `Pre
        "  stamp_check -w free_race,privatize_race \
         --modes tree,tree+lazy -s random,pct";
      `P "Premature-reuse fault — the oracle must flag the skipped grace:";
      `Pre "  stamp_check --fault premature-reuse";
    ]
  in
  Cmd.v
    (Cmd.info "stamp_check" ~doc ~man)
    Term.(
      ret
        (const sweep $ workloads_arg $ apps_arg $ threads_arg $ modes_arg
       $ strategies_arg $ runs_arg $ seed_arg $ max_steps_arg $ min_distinct_arg
       $ fault_arg $ json_arg))

let () = exit (Cmd.eval cmd)
