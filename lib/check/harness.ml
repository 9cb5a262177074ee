module Sched = Captured_sim.Sched
module Memory = Captured_tmem.Memory
module Config = Captured_stm.Config
module Engine = Captured_stm.Engine
module Stats = Captured_stm.Stats
module App = Captured_apps.App

exception Step_budget_exceeded

type run = {
  trace : Strategy.trace;
  violation : Oracle.violation option;
  truncated : bool;
  crashed : bool;  (* ended in an injected process death (recovery ran) *)
  commits : int;
  aborts : int;
  events : int;
  dfrees : int;
      (* [Ev_free] events observed — the reclaim sweeps' vacuity signal:
         a cell claiming the use-after-free rule held must actually have
         exercised frees *)
  forwarded : int;
      (* [Stats.reads_forwarded] of a completed run (0 otherwise) — the
         reread sweeps' vacuity signal *)
}

let count_dfrees hist =
  let n = ref 0 in
  History.iter hist (fun e ->
      match e.History.ev with
      | Captured_stm.Txn.Ev_free _ -> incr n
      | _ -> ());
  !n

(* The oracle's strict (aborted-attempts-too) mode is sound exactly when
   every read is validated as it happens. *)
let strictness_for (config : Config.t) =
  if config.Config.tvalidate then Oracle.All_attempts else Oracle.Committed_only

module Wal = Captured_stm.Wal

(* Crash-and-replay check: recover from the device (fresh memory +
   arenas rebuilt from the last checkpoint and the durable log) and hold
   the result to the recovery oracle's prefix-consistency contract.
   [wal_bug] routes through the seeded apply-the-torn-tail recovery bug
   (the checker's ddmin self-test target). *)
let recovery_violation ?(wal_bug = false) ~wal ~init ~hist () =
  let synced_seq = Wal.synced_seq wal in
  let synced_raws = Wal.synced_raws wal in
  match Wal.recover ~bug_apply_torn:wal_bug wal with
  | Error m ->
      Some { Oracle.kind = "recovery-error"; tid = -1; seq = 0; detail = m }
  | Ok rc ->
      Oracle.check_recovery
        ~initial:(fun a -> init.(a))
        ~recovered:(fun a -> Memory.get rc.Wal.r_memory a)
        ~history:hist
        ~facts:
          {
            Oracle.rf_floor_seq = rc.Wal.r_floor_seq;
            rf_applied_seqs = rc.Wal.r_applied_seqs;
            rf_floor_raws = rc.Wal.r_floor_raws;
            rf_raws_applied = rc.Wal.r_raws_applied;
            rf_synced_seq = synced_seq;
            rf_synced_raws = synced_raws;
            rf_freed = rc.Wal.r_freed;
          }
        ()

(* One controlled run: fresh world, snapshot memory, record the history,
   replay it through the oracle.  Deterministic in (workload, config,
   seed, control). *)
let run_one ?(seed = 7) ?(max_steps = 200_000) ?(record_detail = false)
    ?(wal_bug = false) ~(workload : Workloads.t) ~config control =
  let p = workload.Workloads.prepare config in
  let mem = Engine.memory p.App.world in
  let size = Memory.size mem in
  let init = Array.make size 0 in
  Memory.blit_to_array mem 1 init 1 (size - 1);
  let wal =
    if config.Config.durable then begin
      let w = Wal.create ~group:config.Config.wal_group () in
      (* Attached after setup and after [init] was captured, so the
         baseline checkpoint restores exactly the [init] image. *)
      Engine.attach_wal p.App.world w;
      Some w
    end
    else None
  in
  let hist = History.create () in
  let trace = Strategy.new_trace ~record_detail () in
  let instrumented = Strategy.instrument trace control in
  let control ~ready ~current ~point =
    if Strategy.steps trace >= max_steps then raise Step_budget_exceeded;
    instrumented ~ready ~current ~point
  in
  History.attach hist;
  let outcome =
    Fun.protect ~finally:History.detach (fun () ->
        try `Done (Engine.run_sim ~control ~seed p.App.world p.App.body) with
        | Step_budget_exceeded -> `Truncated
        | Sched.Fiber_failure (tid, e) -> `Crashed (tid, e))
  in
  let dfrees = count_dfrees hist in
  match outcome with
  | `Truncated ->
      {
        trace;
        violation = None;
        truncated = true;
        crashed = false;
        commits = 0;
        aborts = 0;
        events = History.length hist;
        dfrees;
        forwarded = 0;
      }
  | `Crashed (_, Wal.Crashed) when wal <> None ->
      (* Injected process death: the run ends mid-flight by design.  The
         verdict is the recovery oracle's alone — replay the durable log
         and hold the result to prefix consistency. *)
      let wal = Option.get wal in
      {
        trace;
        violation = recovery_violation ~wal_bug ~wal ~init ~hist ();
        truncated = false;
        crashed = true;
        commits = 0;
        aborts = 0;
        events = History.length hist;
        dfrees;
        forwarded = 0;
      }
  | `Crashed (tid, e) ->
      (* No fiber raises in a correct run (conflicts retry internally):
         an escaped exception is zombie fallout or a harness bug. *)
      {
        trace;
        violation =
          Some
            {
              Oracle.kind = "fiber-exception";
              tid;
              seq = History.length hist;
              detail = Printexc.to_string e;
            };
        truncated = false;
        crashed = false;
        commits = 0;
        aborts = 0;
        events = History.length hist;
        dfrees;
        forwarded = 0;
      }
  | `Done r ->
      let orecs = Engine.orecs p.App.world in
      let violation =
        Oracle.check
          ~strictness:(strictness_for config)
          ~lazy_mode:config.Config.lazy_versioning
          ~reclaim:
            (config.Config.ebr || workload.Workloads.reclaim_oracle)
          ~index_of:(Captured_stm.Orec.index_of orecs)
          ~initial:(fun a -> init.(a))
          ~final:(fun a -> Memory.get mem a)
          ~history:hist ~verify:p.App.verify ()
      in
      let violation, crashed =
        match (violation, wal) with
        | Some _, _ | _, None -> (violation, false)
        | None, Some wal -> (
            (* Clean durable run: full-replay verification on every run
               (a [+wal] run that passes the live oracle must also pass
               crash-free recovery — silence here is the no-false-
               positive guarantee), then a checkpoint, which under
               [Crash_mid_checkpoint] tears and must fall back to the
               previous checkpoint on a second recovery. *)
            Wal.sync wal;
            match recovery_violation ~wal_bug ~wal ~init ~hist () with
            | Some v -> (Some v, false)
            | None -> (
                match Engine.checkpoint p.App.world with
                | () -> (None, false)
                | exception Wal.Crashed ->
                    (recovery_violation ~wal_bug ~wal ~init ~hist (), true)))
      in
      {
        trace;
        violation;
        truncated = false;
        crashed;
        commits = r.Engine.stats.Stats.commits;
        aborts = r.Engine.stats.Stats.aborts;
        events = History.length hist;
        dfrees;
        forwarded = r.Engine.stats.Stats.reads_forwarded;
      }

type found = {
  violation : Oracle.violation;
  interventions : (int * int) list;
  minimized : (int * int) list;
}

type report = {
  workload : string;
  config : string;
  strategy : string;
  runs : int;
  distinct : int; (* schedules not seen before (across the shared table) *)
  truncated : int;
  crashes : int;  (* runs ending in an injected process death *)
  violations : int;
  first : found option;
  max_events : int;
  total_commits : int;
  total_dfrees : int;
      (* deferred frees summed over runs — zero means the sweep never
         exercised the path it claims to check (vacuous) *)
  total_forwarded : int;  (* forwarded reads summed over runs, likewise *)
}

(* Bounded exhaustive DFS with preemption bounding: run a prescription,
   then branch on every consume decision after its last prescribed step
   (those all followed the default = continue, so each alternative is one
   more preemption). *)
let dfs_explore ~workload ~config ~seed ~max_steps ~wal_bug ~bound ~budget ~note =
  let stack = ref [ [] ] in
  let runs = ref 0 in
  while !stack <> [] && !runs < budget do
    match !stack with
    | [] -> ()
    | p :: rest ->
        stack := rest;
        incr runs;
        let r =
          run_one ~workload ~config ~seed ~max_steps ~record_detail:true
            ~wal_bug
            (Strategy.replay_control ~interventions:p ())
        in
        note r p;
        if (not r.truncated) && List.length p < bound then begin
          let last =
            List.fold_left (fun acc (s, _) -> max acc s) (-1) p
          in
          let detail = Strategy.detail r.trace in
          Array.iteri
            (fun i (d : Strategy.decision) ->
              if i > last && d.Strategy.d_point = Sched.Consume_point then
                Array.iter
                  (fun alt ->
                    if alt <> d.Strategy.d_chosen then
                      stack := (p @ [ (i, alt) ]) :: !stack)
                  d.Strategy.d_ready)
            detail
        end
  done;
  !runs

let explore ~(workload : Workloads.t) ~config ~strategy ?(runs = 200)
    ?(seed = 1) ?(max_steps = 200_000) ?(minimize = true) ?(wal_bug = false)
    ?seen () =
  let seen =
    match seen with Some s -> s | None -> Hashtbl.create (4 * runs)
  in
  let distinct = ref 0
  and truncated = ref 0
  and crashes = ref 0
  and violations = ref 0
  and max_events = ref 0
  and total_commits = ref 0
  and total_dfrees = ref 0
  and total_forwarded = ref 0
  and ran = ref 0 in
  let first = ref None in
  let note (r : run) interventions =
    incr ran;
    let h = Strategy.hash r.trace in
    if not (Hashtbl.mem seen h) then begin
      Hashtbl.replace seen h ();
      incr distinct
    end;
    if r.truncated then incr truncated;
    if r.crashed then incr crashes;
    max_events := max !max_events r.events;
    total_commits := !total_commits + r.commits;
    total_dfrees := !total_dfrees + r.dfrees;
    total_forwarded := !total_forwarded + r.forwarded;
    match r.violation with
    | None -> ()
    | Some v ->
        incr violations;
        if !first = None then begin
          let minimized =
            if minimize then
              Minimize.ddmin
                ~test:(fun subset ->
                  let rr =
                    run_one ~workload ~config ~seed ~max_steps ~wal_bug
                      (Strategy.replay_control ~interventions:subset ())
                  in
                  rr.violation <> None)
                interventions
            else interventions
          in
          first := Some { violation = v; interventions; minimized }
        end
  in
  (match strategy with
  | Strategy.Random { persist } ->
      for i = 0 to runs - 1 do
        let r =
          run_one ~workload ~config ~seed ~max_steps ~wal_bug
            (Strategy.random_control ~seed:(seed + (7919 * i)) ~persist)
        in
        note r (Strategy.interventions r.trace)
      done
  | Strategy.Pct { depth } ->
      (* One default-policy probe estimates the schedule length PCT
         samples its priority-change points over. *)
      let probe =
        run_one ~workload ~config ~seed ~max_steps ~wal_bug
          (Strategy.replay_control ())
      in
      note probe (Strategy.interventions probe.trace);
      let length = max 1 (Strategy.steps probe.trace) in
      for i = 1 to runs - 1 do
        let r =
          run_one ~workload ~config ~seed ~max_steps ~wal_bug
            (Strategy.pct_control ~seed:(seed + (7919 * i))
               ~nthreads:workload.Workloads.nthreads ~depth ~length)
        in
        note r (Strategy.interventions r.trace)
      done
  | Strategy.Dfs { preemptions } ->
      ignore
        (dfs_explore ~workload ~config ~seed ~max_steps ~wal_bug
           ~bound:preemptions ~budget:runs ~note:(fun r p -> note r p)
          : int));
  {
    workload = workload.Workloads.name;
    config = Config.name config;
    strategy = Strategy.kind_name strategy;
    runs = !ran;
    distinct = !distinct;
    truncated = !truncated;
    crashes = !crashes;
    violations = !violations;
    first = !first;
    max_events = !max_events;
    total_commits = !total_commits;
    total_dfrees = !total_dfrees;
    total_forwarded = !total_forwarded;
  }

let report_to_string r =
  Printf.sprintf "%-14s %-28s %-6s runs=%-5d new-schedules=%-5d trunc=%-3d %s%s"
    r.workload r.config r.strategy r.runs r.distinct r.truncated
    ((if r.crashes = 0 then ""
      else Printf.sprintf "crashes=%d " r.crashes)
    ^ (if r.total_dfrees = 0 then ""
       else Printf.sprintf "dfrees=%d " r.total_dfrees)
    ^
    if r.total_forwarded = 0 then ""
    else Printf.sprintf "forwarded=%d " r.total_forwarded)
    (if r.violations = 0 then "ok"
     else
       match r.first with
       | None -> Printf.sprintf "VIOLATIONS=%d" r.violations
       | Some f ->
           Printf.sprintf "VIOLATIONS=%d first=%s minimized=%s" r.violations
             (Oracle.violation_to_string f.violation)
             (Strategy.interventions_to_string f.minimized))
