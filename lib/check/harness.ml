module Sched = Captured_sim.Sched
module Memory = Captured_tmem.Memory
module Config = Captured_stm.Config
module Fault = Captured_stm.Fault
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
  events : int;
  signals : int array;  (* one count per [Signal.all] row *)
}

(* The oracle's strict (aborted-attempts-too) mode is sound exactly when
   every read is validated as it happens. *)
let strictness_for (config : Config.t) =
  if config.Config.tvalidate then Oracle.All_attempts else Oracle.Committed_only

module Wal = Captured_stm.Wal

(* Crash-and-replay check: recover from the device (fresh memory +
   arenas rebuilt from the last checkpoint and the durable log) and hold
   the result to the recovery oracle's prefix-consistency contract.
   [Fault.Torn_tail_replayed] routes through the seeded
   apply-the-torn-tail recovery bug (the checker's ddmin self-test
   target). *)
let recovery_violation ~config ~wal ~init ~hist =
  let synced_seq = Wal.synced_seq wal in
  let synced_raws = Wal.synced_raws wal in
  match
    Wal.recover
      ~bug_apply_torn:(Config.has_fault config Fault.Torn_tail_replayed)
      wal
  with
  | Error m ->
      Some { Oracle.kind = "recovery-error"; tid = -1; seq = 0; detail = m }
  | Ok rc ->
      Oracle.check_recovery
        ~initial:(Memory.get init)
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
    ~(workload : Workloads.t) ~config control =
  let p = workload.Workloads.prepare config in
  let mem = Engine.memory p.App.world in
  let init = Memory.copy mem in
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
  let finish ?(truncated = false) ?(crashed = false) ?stats violation =
    {
      trace;
      violation;
      truncated;
      crashed;
      commits = Option.fold ~none:0 ~some:(fun s -> s.Stats.commits) stats;
      events = History.length hist;
      signals = Array.map (fun s -> s.Signal.read hist stats) Signal.all;
    }
  in
  match outcome with
  | `Truncated -> finish ~truncated:true None
  | `Crashed (_, Wal.Crashed) when wal <> None ->
      (* Injected process death: the run ends mid-flight by design.  The
         verdict is the recovery oracle's alone — replay the durable log
         and hold the result to prefix consistency. *)
      finish ~crashed:true
        (recovery_violation ~config ~wal:(Option.get wal) ~init ~hist)
  | `Crashed (tid, e) ->
      (* No fiber raises in a correct run (conflicts retry internally):
         an escaped exception is zombie fallout or a harness bug. *)
      finish
        (Some
           {
             Oracle.kind = "fiber-exception";
             tid;
             seq = History.length hist;
             detail = Printexc.to_string e;
           })
  | `Done r ->
      let orecs = Engine.orecs p.App.world in
      let violation =
        Oracle.check
          ~strictness:(strictness_for config)
          ~lazy_mode:config.Config.lazy_versioning
          ~reclaim:
            (config.Config.ebr || workload.Workloads.reclaim_oracle)
          ~index_of:(Captured_stm.Orec.index_of orecs)
          ~initial:(Memory.get init)
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
            match recovery_violation ~config ~wal ~init ~hist with
            | Some v -> (Some v, false)
            | None -> (
                match Engine.checkpoint p.App.world with
                | () -> (None, false)
                | exception Wal.Crashed ->
                    (recovery_violation ~config ~wal ~init ~hist, true)))
      in
      finish ~crashed ~stats:r.Engine.stats violation

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
  signals : int array;  (* [run.signals] summed over the runs *)
}

(* Bounded exhaustive DFS with preemption bounding: run a prescription,
   then branch on every consume decision after its last prescribed step
   (those all followed the default = continue, so each alternative is one
   more preemption). *)
let dfs_explore ~workload ~config ~seed ~max_steps ~bound ~budget ~note =
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
    ?(seed = 1) ?(max_steps = 200_000) ?(minimize = true) ?seen () =
  let seen =
    match seen with Some s -> s | None -> Hashtbl.create (4 * runs)
  in
  let distinct = ref 0
  and truncated = ref 0
  and crashes = ref 0
  and violations = ref 0
  and signals = Array.map (fun _ -> 0) Signal.all
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
    Array.iteri (fun i n -> signals.(i) <- signals.(i) + n) r.signals;
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
                    run_one ~workload ~config ~seed ~max_steps
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
  | Strategy.Random ->
      for i = 0 to runs - 1 do
        let r =
          run_one ~workload ~config ~seed ~max_steps
            (Strategy.random_control ~seed:(seed + (7919 * i))
               ~persist:Strategy.persist)
        in
        note r (Strategy.interventions r.trace)
      done
  | Strategy.Pct ->
      (* One default-policy probe estimates the schedule length PCT
         samples its priority-change points over. *)
      let probe =
        run_one ~workload ~config ~seed ~max_steps
          (Strategy.replay_control ())
      in
      note probe (Strategy.interventions probe.trace);
      let length = max 1 (Strategy.steps probe.trace) in
      for i = 1 to runs - 1 do
        let r =
          run_one ~workload ~config ~seed ~max_steps
            (Strategy.pct_control ~seed:(seed + (7919 * i))
               ~nthreads:workload.Workloads.nthreads ~depth:Strategy.pct_depth
               ~length)
        in
        note r (Strategy.interventions r.trace)
      done
  | Strategy.Dfs ->
      ignore
        (dfs_explore ~workload ~config ~seed ~max_steps
           ~bound:Strategy.dfs_preemptions ~budget:runs
           ~note:(fun r p -> note r p)
          : int));
  {
    workload = workload.Workloads.name;
    config = Config.to_string config;
    strategy = Strategy.name strategy;
    runs = !ran;
    distinct = !distinct;
    truncated = !truncated;
    crashes = !crashes;
    violations = !violations;
    first = !first;
    signals;
  }

let report_to_string r =
  let counts =
    List.filter_map
      (fun (what, n) ->
        if n = 0 then None else Some (Printf.sprintf "%s=%d " what n))
      (("crashes", r.crashes) :: Signal.keyed r.signals)
  in
  Printf.sprintf "%-14s %-28s %-6s runs=%-5d new-schedules=%-5d trunc=%-3d %s%s"
    r.workload r.config r.strategy r.runs r.distinct r.truncated
    (String.concat "" counts)
    (if r.violations = 0 then "ok"
     else
       match r.first with
       | None -> Printf.sprintf "VIOLATIONS=%d" r.violations
       | Some f ->
           Printf.sprintf "VIOLATIONS=%d first=%s minimized=%s" r.violations
             (Oracle.violation_to_string f.violation)
             (Strategy.interventions_to_string f.minimized))

(* One sweep cell: a workload under one config (which carries the
   cell's fault).  Crash-point faults draw
   from the thread PRNG, so whether a commit crashes depends on the
   world seed, not the schedule: durable cells spread their run budget
   over five world seeds. *)
type cell = {
  workload : Workloads.t;
  config : Config.t;
  reports : report list;
  union : int;
}

let world_seeds ~seed (config : Config.t) =
  if config.Config.durable then List.init 5 (fun i -> seed + (31 * i))
  else [ seed ]

let run_cell ?max_steps ?(on_report = fun _ ~union:_ -> ())
    ~strategies ~runs ~seed ~workload ~config () =
  let seeds = world_seeds ~seed config in
  let runs = max 1 (runs / List.length seeds) in
  let seen = Hashtbl.create (8 * runs) in
  let reports =
    List.concat_map
      (fun strategy ->
        List.map
          (fun seed ->
            let r =
              explore ~workload ~config ~strategy ~runs ~seed ?max_steps
                ~seen ()
            in
            on_report r ~union:(Hashtbl.length seen);
            r)
          seeds)
      strategies
  in
  { workload; config; reports; union = Hashtbl.length seen }

let total f c = List.fold_left (fun acc r -> acc + f r) 0 c.reports

(* What a cell must show to count as evidence, whatever its fault
   promises: no truncated run, every floor met. *)
let floor_failures ~min_distinct c =
  let label = c.workload.Workloads.name ^ " " ^ Config.to_string c.config in
  let below what n floor =
    if n < floor then
      Some
        (Printf.sprintf "%s: %d %s < %d required (vacuous)" label n what
           floor)
    else None
  in
  let crash_fault =
    match c.config.Config.fault with Some f -> Fault.is_crash f | None -> false
  in
  let signal i (s : Signal.t) =
    below s.label
      (total (fun r -> r.signals.(i)) c)
      (if List.memq s c.workload.Workloads.floors then 1 else 0)
  in
  List.filter_map Fun.id
    ([
       (let n = total (fun r -> r.truncated) c in
        if n > 0 then
          Some
            (Printf.sprintf
               "%s: %d truncated runs (possible livelock; raise the step \
                budget if legitimate)"
               label n)
        else None);
       below "injected crashes" (total (fun r -> r.crashes) c)
         (if crash_fault then 1 else 0);
     ]
    @ Array.to_list (Array.mapi signal Signal.all)
    @ [
        below "distinct schedules" c.union
          (if c.config.Config.fault = None then min_distinct else 0);
      ])

(* Every cell sharing [fault], judged by its expectation: fault-free and
   Contained cells must stay silent, Flagged ones must be caught without
   an exception escaping a fiber.  Returns (notes, failures). *)
let fault_verdict fault cells =
  let caught =
    List.concat_map
      (fun c ->
        List.filter_map
          (fun r -> if r.violations > 0 then Some (c, r) else None)
          c.reports)
      cells
  in
  let fail fmt = Printf.ksprintf (fun m -> ([], [ m ])) fmt in
  match fault with
  | None ->
      ( [],
        List.map
          (fun (c, r) ->
            Printf.sprintf "%s %s %s: %d oracle violations"
              c.workload.Workloads.name (Config.to_string c.config) r.strategy
              r.violations)
          caught )
  | Some f -> (
      let name = Fault.name f in
      let escaped =
        List.filter
          (fun (_, r) ->
            match r.first with
            | Some f -> f.violation.Oracle.kind = "fiber-exception"
            | None -> false)
          caught
      in
      match Fault.expectation f with
      | Fault.Contained when caught <> [] ->
          fail "fault %s escaped containment: violations in %d strategy runs"
            name (List.length caught)
      | Fault.Contained -> ([], [])
      | Fault.Flagged when escaped <> [] ->
          fail "fault %s: exceptions escaped fibers in %d runs (sandbox failed)"
            name (List.length escaped)
      | Fault.Flagged when caught = [] ->
          fail "injected fault %s was NOT flagged by any strategy" name
      | Fault.Flagged ->
          ( List.map
              (fun (c, r) ->
                Printf.sprintf
                  "flagged injected fault %s on %s (minimized to %d \
                   interventions)"
                  name c.workload.Workloads.name
                  (match r.first with
                  | Some f -> List.length f.minimized
                  | None -> 0))
              caught,
            [] ))

let verdict ?(min_distinct = 0) cells =
  let faults =
    List.fold_left
      (fun acc c ->
        let f = c.config.Config.fault in
        if List.mem f acc then acc else acc @ [ f ])
      [] cells
  in
  let judged =
    List.map
      (fun fault ->
        fault_verdict fault
          (List.filter (fun c -> c.config.Config.fault = fault) cells))
      faults
  in
  match
    List.concat_map (floor_failures ~min_distinct) cells
    @ List.concat_map snd judged
  with
  | [] -> Ok (List.concat_map fst judged)
  | failures -> Error failures
