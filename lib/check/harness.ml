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
  aborts : int;
  events : int;
  dfrees : int;
      (* [Ev_free] events observed — the reclaim sweeps' vacuity signal:
         a cell claiming the use-after-free rule held must actually have
         exercised frees *)
  forwarded : int;
      (* [Stats.reads_forwarded] of a completed run (0 otherwise) — the
         reread sweeps' vacuity signal *)
  rescued : int;  (* [Stats.value_rescues], likewise for linemate *)
  extended : int;  (* [Stats.waits_extended], likewise for longread *)
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
    ~(workload : Workloads.t) ~config control =
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
        rescued = 0;
        extended = 0;
      }
  | `Crashed (_, Wal.Crashed) when wal <> None ->
      (* Injected process death: the run ends mid-flight by design.  The
         verdict is the recovery oracle's alone — replay the durable log
         and hold the result to prefix consistency. *)
      let wal = Option.get wal in
      {
        trace;
        violation = recovery_violation ~config ~wal ~init ~hist;
        truncated = false;
        crashed = true;
        commits = 0;
        aborts = 0;
        events = History.length hist;
        dfrees;
        forwarded = 0;
        rescued = 0;
        extended = 0;
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
        rescued = 0;
        extended = 0;
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
            match recovery_violation ~config ~wal ~init ~hist with
            | Some v -> (Some v, false)
            | None -> (
                match Engine.checkpoint p.App.world with
                | () -> (None, false)
                | exception Wal.Crashed ->
                    (recovery_violation ~config ~wal ~init ~hist, true)))
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
        rescued = r.Engine.stats.Stats.value_rescues;
        extended = r.Engine.stats.Stats.waits_extended;
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
  total_rescued : int;  (* value rescues summed over runs, likewise *)
  total_extended : int;  (* extended lock waits summed over runs, likewise *)
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
  and max_events = ref 0
  and total_commits = ref 0
  and total_dfrees = ref 0
  and total_forwarded = ref 0
  and total_rescued = ref 0
  and total_extended = ref 0
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
    total_rescued := !total_rescued + r.rescued;
    total_extended := !total_extended + r.extended;
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
    max_events = !max_events;
    total_commits = !total_commits;
    total_dfrees = !total_dfrees;
    total_forwarded = !total_forwarded;
    total_rescued = !total_rescued;
    total_extended = !total_extended;
  }

let report_to_string r =
  Printf.sprintf "%-14s %-28s %-6s runs=%-5d new-schedules=%-5d trunc=%-3d %s%s"
    r.workload r.config r.strategy r.runs r.distinct r.truncated
    ((if r.crashes = 0 then ""
      else Printf.sprintf "crashes=%d " r.crashes)
    ^ (if r.total_dfrees = 0 then ""
       else Printf.sprintf "dfrees=%d " r.total_dfrees)
    ^ (if r.total_forwarded = 0 then ""
       else Printf.sprintf "forwarded=%d " r.total_forwarded)
    ^ (if r.total_rescued = 0 then ""
       else Printf.sprintf "rescued=%d " r.total_rescued)
    ^
    if r.total_extended = 0 then ""
    else Printf.sprintf "extended=%d " r.total_extended)
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
  List.filter_map Fun.id
    [
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
      below "deferred frees"
        (total (fun r -> r.total_dfrees) c)
        (Workloads.min_dfrees c.workload);
      below "forwarded reads"
        (total (fun r -> r.total_forwarded) c)
        (Workloads.min_forwarded c.workload);
      below "value rescues"
        (total (fun r -> r.total_rescued) c)
        (Workloads.min_rescued c.workload);
      below "extended lock waits"
        (total (fun r -> r.total_extended) c)
        (Workloads.min_extended c.workload);
      below "distinct schedules" c.union
        (if c.config.Config.fault = None then min_distinct else 0);
    ]

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
