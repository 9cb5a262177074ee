(* Tests for the schedule-exploration checker: controlled-scheduler
   determinism and replay fidelity, the opacity oracle on hand-built
   histories, clean sweeps over the micro workloads, and the
   injected-bug canary (caught, minimized, replayable). *)

module Config = Captured_stm.Config
module Fault = Captured_stm.Fault
module Engine = Captured_stm.Engine
module Txn = Captured_stm.Txn
module Orec = Captured_stm.Orec
module Alloc = Captured_tmem.Alloc
module App = Captured_apps.App
module Alloc_log = Captured_core.Alloc_log
module History = Captured_check.History
module Oracle = Captured_check.Oracle
module Strategy = Captured_check.Strategy
module Minimize = Captured_check.Minimize
module Workloads = Captured_check.Workloads
module Harness = Captured_check.Harness
module Signal = Captured_check.Signal

let tree = Config.runtime Alloc_log.Tree

let configs =
  [
    Config.baseline;
    tree;
    Config.with_fastpath tree;
    Config.with_tvalidate tree;
    Config.with_tvalidate (Config.with_fastpath tree);
  ]

(* ------------------------------------------------------------------ *)
(* Controlled scheduler                                                *)

let test_deterministic () =
  let workload = Workloads.counter ~nthreads:2 ~incs:3 in
  let go () =
    Harness.run_one ~seed:5 ~workload ~config:tree
      (Strategy.random_control ~seed:99 ~persist:80)
  in
  let a = go () and b = go () in
  Alcotest.(check int)
    "same schedule hash"
    (Strategy.hash a.Harness.trace)
    (Strategy.hash b.Harness.trace);
  Alcotest.(check int) "same commits" a.Harness.commits b.Harness.commits;
  Alcotest.(check int) "same events" a.Harness.events b.Harness.events;
  Alcotest.(check (array int))
    "same signals" a.Harness.signals b.Harness.signals;
  Alcotest.(check bool) "no violation" true (a.Harness.violation = None)

let test_replay_fidelity () =
  (* Any schedule replays exactly from its intervention list alone. *)
  let workload = Workloads.bank ~nthreads:2 ~accounts:3 ~transfers:2 in
  for i = 0 to 19 do
    let r =
      Harness.run_one ~seed:5 ~workload ~config:tree
        (Strategy.random_control ~seed:(1000 + i) ~persist:70)
    in
    let again =
      Harness.run_one ~seed:5 ~workload ~config:tree
        (Strategy.replay_control
           ~interventions:(Strategy.interventions r.Harness.trace)
           ())
    in
    Alcotest.(check int)
      (Printf.sprintf "replay %d hash" i)
      (Strategy.hash r.Harness.trace)
      (Strategy.hash again.Harness.trace)
  done

let test_schedules_differ () =
  (* Different seeds must actually explore different interleavings. *)
  let workload = Workloads.counter ~nthreads:2 ~incs:3 in
  let hashes = Hashtbl.create 64 in
  for i = 0 to 39 do
    let r =
      Harness.run_one ~seed:5 ~workload ~config:tree
        (Strategy.random_control ~seed:i ~persist:80)
    in
    Hashtbl.replace hashes (Strategy.hash r.Harness.trace) ()
  done;
  Alcotest.(check bool)
    "at least 20 distinct schedules out of 40 seeds" true
    (Hashtbl.length hashes >= 20)

(* Orec release is not atomic: between two releases the committing
   thread passes a decision point, so a peer scheduled there sees one
   orec of the commit released while the next is still locked — the
   window in which a commit event emitted after release would let the
   peer read a value no committed instant held.  Thread 0 commits writes
   to two lines on distinct orecs; thread 1 samples both orec words at
   every decision point, and the control always switches fibers. *)
let test_partial_release_observable () =
  List.iter
    (fun config ->
      let w = Engine.create ~nthreads:2 config in
      let orecs = Engine.orecs w in
      let a = Alloc.alloc (Engine.global_arena w) 64 in
      let b = a + 32 in
      let ia = Orec.index_of orecs a and ib = Orec.index_of orecs b in
      Alcotest.(check bool) "distinct orecs" true (ia <> ib);
      let locked i = Orec.is_locked (Orec.get orecs i) in
      let released i = (not (locked i)) && Orec.get orecs i <> 0 in
      let done_ = ref false and seen = ref false in
      let switch ~ready ~current ~point:_ =
        match Array.find_opt (fun id -> id <> current) ready with
        | Some id -> id
        | None -> ready.(0)
      in
      let _ =
        Engine.run_sim ~control:switch w (fun th ->
            if Txn.thread_id th = 0 then begin
              Txn.atomic th (fun tx ->
                  Txn.write tx a 1;
                  Txn.write tx b 2);
              done_ := true
            end
            else
              while not !done_ do
                if (released ia && locked ib) || (released ib && locked ia)
                then seen := true;
                Txn.work th 1
              done)
      in
      Alcotest.(check bool)
        (Config.to_string config ^ ": one orec released, the other locked")
        true !seen)
    [
      Config.baseline;
      Config.with_lazy Config.baseline;
      Config.with_tvalidate Config.baseline;
    ]

(* ------------------------------------------------------------------ *)
(* Oracle unit tests on hand-built histories                           *)

let run_oracle ?(strictness = Oracle.Committed_only) ?(initial = fun _ -> 0)
    ?(final = fun _ -> 0) events =
  let h = History.create () in
  List.iter (fun (tid, ev) -> History.record h ~tid ev) events;
  Oracle.check ~strictness ~initial ~final ~history:h
    ~verify:(fun () -> Ok ())
    ()

let rd addr value = Txn.Ev_read { addr; value; cls = Txn.Instrumented }
let wr addr value = Txn.Ev_write { addr; value; cls = Txn.Instrumented }

let test_oracle_clean_history () =
  (* Two serial increments: nothing to complain about. *)
  let v =
    run_oracle
      ~final:(fun a -> if a = 7 then 2 else 0)
      [
        (0, Txn.Ev_begin { attempt = 1 });
        (0, rd 7 0);
        (0, wr 7 1);
        (0, Txn.Ev_commit);
        (1, Txn.Ev_begin { attempt = 1 });
        (1, rd 7 1);
        (1, wr 7 2);
        (1, Txn.Ev_commit);
      ]
  in
  Alcotest.(check bool) "clean" true (v = None)

let test_oracle_lost_update () =
  (* Interleaved read-modify-writes that both commit: the classic lost
     update the stale-locked-read rule exists for. *)
  let v =
    run_oracle
      ~final:(fun a -> if a = 7 then 1 else 0)
      [
        (0, Txn.Ev_begin { attempt = 1 });
        (0, rd 7 0);
        (1, Txn.Ev_begin { attempt = 1 });
        (1, rd 7 0);
        (1, wr 7 1);
        (1, Txn.Ev_commit);
        (0, wr 7 1);
        (0, Txn.Ev_commit);
      ]
  in
  match v with
  | Some { kind = "stale-locked-read"; _ } -> ()
  | Some v -> Alcotest.failf "wrong kind: %s" (Oracle.violation_to_string v)
  | None -> Alcotest.fail "lost update not detected"

let test_oracle_zombie_legal_when_aborted () =
  (* A zombie repeat-read in an attempt that aborts is legal under
     Committed_only but a violation under All_attempts. *)
  let events =
    [
      (0, Txn.Ev_begin { attempt = 1 });
      (0, rd 7 0);
      (1, Txn.Ev_begin { attempt = 1 });
      (1, rd 7 0);
      (1, wr 7 5);
      (1, Txn.Ev_commit);
      (0, rd 7 5);
      (* inconsistent with the first read *)
      (0, Txn.Ev_abort { user = false });
    ]
  in
  let relaxed =
    run_oracle ~final:(fun a -> if a = 7 then 5 else 0) events
  in
  Alcotest.(check bool) "legal when aborted" true (relaxed = None);
  match
    run_oracle ~strictness:Oracle.All_attempts
      ~final:(fun a -> if a = 7 then 5 else 0)
      events
  with
  | Some { kind = "repeat-read"; _ } -> ()
  | Some v -> Alcotest.failf "wrong kind: %s" (Oracle.violation_to_string v)
  | None -> Alcotest.fail "strict mode missed the zombie read"

let test_oracle_zombie_illegal_when_committed () =
  (* The same inconsistent repeat-read inside a COMMITTED attempt is a
     violation in every mode. *)
  let events =
    [
      (0, Txn.Ev_begin { attempt = 1 });
      (0, rd 7 0);
      (1, Txn.Ev_begin { attempt = 1 });
      (1, rd 7 0);
      (1, wr 7 5);
      (1, Txn.Ev_commit);
      (0, rd 7 5);
      (0, Txn.Ev_commit);
    ]
  in
  match run_oracle ~final:(fun a -> if a = 7 then 5 else 0) events with
  | Some { kind = "repeat-read"; _ } -> ()
  | Some v -> Alcotest.failf "wrong kind: %s" (Oracle.violation_to_string v)
  | None -> Alcotest.fail "committed zombie read not detected"

let test_oracle_read_own_write () =
  let v =
    run_oracle
      [
        (0, Txn.Ev_begin { attempt = 1 });
        (0, wr 7 3);
        (0, rd 7 9);
        (* should have been 3 *)
        (0, Txn.Ev_abort { user = false });
      ]
  in
  match v with
  | Some { kind = "read-own-write"; _ } -> ()
  | Some v -> Alcotest.failf "wrong kind: %s" (Oracle.violation_to_string v)
  | None -> Alcotest.fail "read-own-write not detected"

let test_oracle_partial_abort_rollback () =
  (* A nested scope's writes roll back on partial abort; the retained
     lock makes the subsequent re-read exempt, and commit applies only
     the outer write. *)
  let v =
    run_oracle
      ~final:(fun a -> if a = 7 then 1 else 0)
      [
        (0, Txn.Ev_begin { attempt = 1 });
        (0, rd 7 0);
        (0, Txn.Ev_scope_begin);
        (0, wr 7 1000);
        (0, Txn.Ev_scope_abort);
        (0, rd 7 0);
        (0, wr 7 1);
        (0, Txn.Ev_commit);
      ]
  in
  Alcotest.(check bool) "rolled back cleanly" true (v = None)

let test_oracle_final_state () =
  let v =
    run_oracle
      ~final:(fun _ -> 0) (* memory does NOT hold the committed 1 *)
      [
        (0, Txn.Ev_begin { attempt = 1 });
        (0, wr 7 1);
        (0, Txn.Ev_commit);
      ]
  in
  match v with
  | Some { kind = "final-state"; _ } -> ()
  | Some v -> Alcotest.failf "wrong kind: %s" (Oracle.violation_to_string v)
  | None -> Alcotest.fail "final-state divergence not detected"

(* ------------------------------------------------------------------ *)
(* ddmin                                                               *)

let test_ddmin () =
  let needed = [ (3, 1); (8, 0) ] in
  let calls = ref 0 in
  let test subset =
    incr calls;
    List.for_all (fun c -> List.mem c subset) needed
  in
  let input = List.init 12 (fun i -> (i, i mod 2)) in
  let out = Minimize.ddmin ~test input in
  Alcotest.(check (list (pair int int)))
    "exactly the needed pair" needed
    (List.sort compare out);
  Alcotest.(check bool) "bounded work" true (!calls <= 400)

let test_ddmin_single () =
  let out = Minimize.ddmin ~test:(fun s -> List.mem (5, 1) s)
      (List.init 30 (fun i -> (i, 1)))
  in
  Alcotest.(check (list (pair int int))) "singleton" [ (5, 1) ] out

(* ------------------------------------------------------------------ *)
(* Clean sweeps: every micro workload × config, three strategies       *)

(* The count [signals] (a run's or a report's) holds for [s]. *)
let count signals s =
  signals.(Option.get (Array.find_index (( == ) s) Signal.all))

let test_micros_clean () =
  List.iter
    (fun config ->
      List.iter
        (fun workload ->
          List.iter
            (fun strategy ->
              let r =
                Harness.explore ~workload ~config ~strategy ~runs:40 ~seed:3
                  ()
              in
              if r.Harness.violations > 0 then
                Alcotest.failf "%s" (Harness.report_to_string r);
              Alcotest.(check int)
                (Printf.sprintf "%s/%s/%s truncations" r.Harness.workload
                   r.Harness.config r.Harness.strategy)
                0 r.Harness.truncated;
              (* Only the forwarded-read floor holds for each strategy
                 alone in every config here (linemate under baseline
                 and dfs rescues nothing). *)
              if List.memq Signal.forwarded workload.Workloads.floors then
                Alcotest.(check bool)
                  (Printf.sprintf "%s/%s/%s forwarded-read floor"
                     r.Harness.workload r.Harness.config r.Harness.strategy)
                  true
                  (count r.Harness.signals Signal.forwarded > 0))
            [ Strategy.Random; Strategy.Pct; Strategy.Dfs ])
        (Workloads.micros ~nthreads:2))
    configs

(* ------------------------------------------------------------------ *)
(* The injected bug: caught, minimized small, replayable               *)

let test_injected_bug_caught () =
  let config = Config.with_fault (Some Fault.Skip_validation) tree in
  let workload = Workloads.counter ~nthreads:2 ~incs:3 in
  let r =
    Harness.explore ~workload ~config
      ~strategy:Strategy.Random
      ~runs:200 ~seed:3 ()
  in
  match r.Harness.first with
  | None -> Alcotest.fail "injected validation-skip bug not caught"
  | Some f ->
      Alcotest.(check bool)
        "minimized to at most 10 interventions" true
        (List.length f.Harness.minimized <= 10);
      (* The minimized schedule must still reproduce a violation, from
         nothing but the intervention list. *)
      let again =
        Harness.run_one ~seed:3 ~workload ~config
          (Strategy.replay_control ~interventions:f.Harness.minimized ())
      in
      Alcotest.(check bool)
        "minimized schedule reproduces" true
        (again.Harness.violation <> None)

let test_injected_bug_caught_by_dfs () =
  let config = Config.with_fault (Some Fault.Skip_validation) tree in
  let workload = Workloads.counter ~nthreads:2 ~incs:3 in
  let r =
    Harness.explore ~workload ~config
      ~strategy:Strategy.Dfs
      ~runs:200 ~seed:3 ()
  in
  Alcotest.(check bool) "dfs finds it" true (r.Harness.violations > 0)

(* ------------------------------------------------------------------ *)
(* Zombies: the trap genuinely fires, and the always-armed fuel        *)
(* terminates it                                                       *)

let all_strategies = [ Strategy.Random; Strategy.Pct; Strategy.Dfs ]

(* The micros sweep already proves zombie runs terminate; this probe
   (the same workload, plus an OCaml-side flag set on trap entry) proves
   the inconsistent read is actually reached — without that,
   termination would be vacuous.  A zombie that outlives the spin cap
   fails the workload's verify: a reported violation.  No probe arms
   anything: the fuel budget is always on. *)
let zombie_trap_fires_and_terminates ~spin =
  let trapped = ref false in
  let workload =
    Workloads.zombie ~name:"zombie-probe" ~nthreads:2 ~rounds:3
      ~spin:(fun tx b ->
        trapped := true;
        spin tx b)
  in
  List.iter
    (fun strategy ->
      let r =
        Harness.explore ~workload ~config:tree ~strategy ~runs:200 ~seed:3 ()
      in
      if r.Harness.violations > 0 then
        Alcotest.failf "%s" (Harness.report_to_string r);
      Alcotest.(check int) "no truncations" 0 r.Harness.truncated)
    all_strategies;
  Alcotest.(check bool) "trap entered at least once" true !trapped

let test_zombie_trap_fires_and_terminates () =
  zombie_trap_fires_and_terminates ~spin:(fun tx _ -> Txn.tx_work tx 25)

(* Spinning on re-reads of [b]: the Scan clock logged the zombie's read
   of [b] unchecked, so every re-read is forwarded from the read log and
   only the fuel each read burns ends it. *)
let test_zombie_reread_terminates () =
  zombie_trap_fires_and_terminates ~spin:(fun tx b ->
      ignore (Txn.read tx b : int))

(* Read-modify-write of [b]: after the first write every access hits the
   owned orec, which no barrier slow path sees. *)
let test_zombie_owned_terminates () =
  zombie_trap_fires_and_terminates ~spin:(fun tx b ->
      Txn.write tx b (Txn.read tx b))

(* Alloc, write and free a cell: the write to the fresh block is
   captured and elided, so again only the fuel bounds the spin. *)
let test_zombie_elided_terminates () =
  zombie_trap_fires_and_terminates ~spin:(fun tx _ ->
      let p = Txn.alloc tx 1 in
      Txn.write tx p 1;
      Txn.free tx p)

(* ------------------------------------------------------------------ *)
(* Structured faults: contained ones stay silent, flagged ones are     *)
(* detected by the oracle                                              *)

let test_contained_faults_stay_contained () =
  List.iter
    (fun fault ->
      if Fault.expectation fault = Fault.Contained then
        let config = Config.with_fault (Some fault) tree in
        List.iter
          (fun workload ->
            let r =
              Harness.explore ~workload ~config
                ~strategy:Strategy.Random
                ~runs:80 ~seed:3 ()
            in
            if r.Harness.violations > 0 then
              Alcotest.failf "fault %s escaped: %s" (Fault.name fault)
                (Harness.report_to_string r))
          [
            Workloads.counter ~nthreads:2 ~incs:3;
            Workloads.publish ~nthreads:2 ~nodes:3;
          ])
    Fault.all

let test_stale_read_flagged () =
  let config = Config.with_fault (Some Fault.Stale_read) tree in
  let r =
    Harness.explore
      ~workload:(Workloads.counter ~nthreads:2 ~incs:3)
      ~config
      ~strategy:Strategy.Random
      ~runs:300 ~seed:3 ()
  in
  Alcotest.(check bool) "stale reads flagged" true (r.Harness.violations > 0);
  (* Detected by the oracle, not by an exception escaping a fiber. *)
  match r.Harness.first with
  | Some f ->
      Alcotest.(check bool)
        "not a crash" true
        (f.Harness.violation.Oracle.kind <> "fiber-exception")
  | None -> Alcotest.fail "no first violation recorded"

let test_clock_stall_flagged_under_tv () =
  let config =
    Config.with_fault (Some Fault.Clock_stall) (Config.with_tvalidate tree)
  in
  let r =
    Harness.explore
      ~workload:(Workloads.counter ~nthreads:2 ~incs:3)
      ~config
      ~strategy:Strategy.Random
      ~runs:300 ~seed:3 ()
  in
  Alcotest.(check bool) "clock stall flagged" true (r.Harness.violations > 0)

let test_redo_drop_flagged_under_lazy () =
  let config = Config.with_fault (Some Fault.Redo_drop) (Config.with_lazy tree) in
  let r =
    Harness.explore
      ~workload:(Workloads.counter ~nthreads:2 ~incs:3)
      ~config
      ~strategy:Strategy.Random
      ~runs:300 ~seed:3 ()
  in
  Alcotest.(check bool) "dropped redo insert flagged" true
    (r.Harness.violations > 0)

let test_publish_partial_flagged_under_lazy () =
  let config =
    Config.with_fault (Some Fault.Publish_partial) (Config.with_lazy tree)
  in
  let r =
    Harness.explore
      ~workload:(Workloads.counter ~nthreads:2 ~incs:3)
      ~config
      ~strategy:Strategy.Random
      ~runs:300 ~seed:3 ()
  in
  Alcotest.(check bool) "partial publish flagged" true
    (r.Harness.violations > 0)

(* A rescue that skips the value check passes a commit to the very word
   read as a line-mate's; linemate's true conflicts must expose it under
   both clocks and both versioning modes, each on its own. *)
let test_blind_rescue_flagged_everywhere () =
  List.iter
    (fun mode ->
      let config = Config.with_fault (Some Fault.Blind_rescue) mode in
      let r =
        Harness.explore
          ~workload:(Workloads.linemate ~nthreads:2 ~rounds:3)
          ~config
          ~strategy:Strategy.Random
          ~runs:200 ~seed:3 ()
      in
      let name = Config.to_string config in
      Alcotest.(check bool)
        (name ^ ": rescued") true
        (count r.Harness.signals Signal.rescued > 0);
      match r.Harness.first with
      | Some f ->
          Alcotest.(check bool)
            (name ^ ": caught by the oracle, not a crash")
            true
            (f.Harness.violation.Oracle.kind <> "fiber-exception")
      | None -> Alcotest.failf "%s: blind rescue not flagged" name)
    [
      tree;
      Config.with_tvalidate tree;
      Config.with_lazy tree;
      Config.with_lazy (Config.with_tvalidate tree);
    ]

(* Adjacent record words sit on separate one-word orecs; a skipped
   validation must still lose an update on the word two threads share,
   under both clocks and both versioning modes, each on its own. *)
let test_skip_validation_flagged_on_recordmix () =
  List.iter
    (fun mode ->
      let config = Config.with_fault (Some Fault.Skip_validation) mode in
      let r =
        Harness.explore
          ~workload:(Workloads.recordmix ~nthreads:2 ~rounds:4)
          ~config
          ~strategy:Strategy.Random
          ~runs:200 ~seed:3 ()
      in
      let name = Config.to_string config in
      match r.Harness.first with
      | Some f ->
          Alcotest.(check bool)
            (name ^ ": caught by the oracle, not a crash")
            true
            (f.Harness.violation.Oracle.kind <> "fiber-exception")
      | None -> Alcotest.failf "%s: skipped validation not flagged" name)
    [
      tree;
      Config.with_tvalidate tree;
      Config.with_lazy tree;
      Config.with_lazy (Config.with_tvalidate tree);
    ]

let test_clean_lazy_config_no_false_positive () =
  let workload = Workloads.counter ~nthreads:2 ~incs:3 in
  let r =
    Harness.explore ~workload ~config:(Config.with_lazy tree)
      ~strategy:Strategy.Random
      ~runs:200 ~seed:3 ()
  in
  Alcotest.(check int) "no violations under lazy" 0 r.Harness.violations

let test_clean_config_no_false_positive () =
  (* Identical exploration without the bug: silence. *)
  let workload = Workloads.counter ~nthreads:2 ~incs:3 in
  let r =
    Harness.explore ~workload ~config:tree
      ~strategy:Strategy.Random
      ~runs:200 ~seed:3 ()
  in
  Alcotest.(check int) "no violations" 0 r.Harness.violations


(* ------------------------------------------------------------------ *)
(* Durable transactions: crash faults recover cleanly, clean +wal      *)
(* sweeps stay silent, and the seeded recovery bug is caught+minimized *)

let crash_fault_kinds =
  [
    Fault.Crash_pre_commit;
    Fault.Crash_mid_publish;
    Fault.Crash_post_publish;
    Fault.Crash_mid_checkpoint;
    Fault.Torn_wal_record;
  ]

(* Crash faults run through the sweep cell loop: whether a commit crashes
   is drawn from the thread PRNG, so each durable cell spreads its runs
   over several world seeds, and the verdict fails a cell whose fault
   never fired. *)
let test_crash_faults_recover_clean () =
  let cells =
    List.concat_map
      (fun fault ->
        List.map
          (fun mode ->
            Harness.run_cell
              ~strategies:[ Strategy.Random ]
              ~runs:75 ~seed:3
              ~workload:(Workloads.counter ~nthreads:2 ~incs:3)
              ~config:
                (tree |> mode
                |> Config.with_fault (Some fault)
                |> Config.with_durable)
              ())
          [ Fun.id; Config.with_lazy ~on:true ])
      crash_fault_kinds
  in
  match Harness.verdict cells with
  | Ok _ -> ()
  | Error failures -> Alcotest.fail (String.concat "\n" failures)

let test_clean_wal_sweep_silent () =
  (* Every clean durable run is additionally full-replay-checked by the
     recovery oracle inside the harness, so silence here covers both the
     live and the recovery oracle. *)
  List.iter
    (fun (mname, mode) ->
      let config = tree |> mode |> Config.with_durable in
      let r =
        Harness.explore
          ~workload:(Workloads.bank ~nthreads:2 ~accounts:3 ~transfers:3)
          ~config
          ~strategy:Strategy.Random
          ~runs:120 ~seed:3 ()
      in
      if r.Harness.violations > 0 then
        Alcotest.failf "clean +wal (%s): %s" mname
          (Harness.report_to_string r);
      Alcotest.(check int)
        (mname ^ ": no crashes without crash faults")
        0 r.Harness.crashes)
    [
      ("eager", fun c -> c);
      ("lazy+tv",
       fun c -> c |> Config.with_lazy |> Config.with_tvalidate);
    ]

let test_torn_tail_replayed_caught () =
  let with_fault f =
    tree |> Config.with_fault (Some f) |> Config.with_durable
  in
  let config = with_fault Fault.Torn_tail_replayed in
  let workload = Workloads.bank ~nthreads:2 ~accounts:3 ~transfers:3 in
  let strategy = Strategy.Random in
  (* The seeded replay-the-torn-tail bug must be flagged by the recovery
     oracle on some world seed... *)
  let found =
    List.find_map
      (fun seed ->
        let r =
          Harness.explore ~workload ~config ~strategy ~runs:40 ~seed ()
        in
        if r.Harness.violations > 0 then Some (seed, r) else None)
      (Harness.world_seeds ~seed:3 config)
  in
  match found with
  | None -> Alcotest.fail "seeded recovery bug never flagged"
  | Some (seed, r) -> (
      match r.Harness.first with
      | None -> Alcotest.fail "violations counted but none recorded"
      | Some f ->
          (* ...as a recovery violation, delta-debugged to a replayable
             intervention list no longer than the original... *)
          Alcotest.(check bool)
            "recovery-kind violation" true
            (String.length f.Harness.violation.Oracle.kind >= 8
            && String.sub f.Harness.violation.Oracle.kind 0 8 = "recovery");
          Alcotest.(check bool)
            "ddmin did not grow the reproducer" true
            (List.length f.Harness.minimized
            <= List.length f.Harness.interventions);
          let replay =
            Harness.run_one ~workload ~config ~seed
              (Strategy.replay_control ~interventions:f.Harness.minimized ())
          in
          Alcotest.(check bool)
            "minimized reproducer replays" true
            (replay.Harness.violation <> None);
          (* ...and the identical sweep with only the tear is silent. *)
          let clean =
            Harness.explore ~workload
              ~config:(with_fault Fault.Torn_wal_record)
              ~strategy ~runs:40 ~seed ()
          in
          Alcotest.(check int)
            "no violations without the seeded bug" 0 clean.Harness.violations;
          (* Both faults tear at the same site and rate, so the runs
             crash identically. *)
          Alcotest.(check int)
            "same crashes" r.Harness.crashes clean.Harness.crashes)

(* ------------------------------------------------------------------ *)
(* Epoch-based reclamation: the free-race zombie UAF is red without    *)
(* +ebr (deterministically reproducible from the minimized schedule)   *)
(* and green with it, across config suffixes and 30 world seeds        *)

let test_free_race_red_without_ebr () =
  let workload = Workloads.free_race ~nthreads:2 ~rounds:3 in
  let r =
    Harness.explore ~workload ~config:tree
      ~strategy:Strategy.Random
      ~runs:200 ~seed:3 ()
  in
  match r.Harness.first with
  | None -> Alcotest.fail "free race never flagged without +ebr"
  | Some f ->
      Alcotest.(check string)
        "flagged as use-after-free" "use-after-free"
        f.Harness.violation.Oracle.kind;
      (* The ddmin-minimized intervention list is a deterministic zombie
         reproducer: replaying it from scratch hits a violation again. *)
      let again =
        Harness.run_one ~seed:3 ~workload ~config:tree
          (Strategy.replay_control ~interventions:f.Harness.minimized ())
      in
      Alcotest.(check bool)
        "minimized schedule reproduces" true
        (again.Harness.violation <> None)

let test_privatize_race_red_without_ebr () =
  let workload = Workloads.privatize_race ~nthreads:2 ~rounds:2 in
  let r =
    Harness.explore ~workload ~config:tree
      ~strategy:Strategy.Random
      ~runs:300 ~seed:3 ()
  in
  Alcotest.(check bool)
    "privatization race flagged without +ebr" true
    (r.Harness.violations > 0)

let test_reclaim_green_with_ebr_torture () =
  (* 30-seed torture: both reclaim micros across config suffixes, all
     with +ebr — zero violations, and non-vacuously so (every cell must
     actually push frees through limbo). *)
  let ebr_configs =
    List.map Config.with_ebr
      [
        tree;
        Config.with_fastpath tree;
        Config.with_tvalidate tree;
        Config.with_tvalidate (Config.with_fastpath tree);
        Config.with_lazy tree;
      ]
  in
  List.iter
    (fun workload ->
      List.iter
        (fun config ->
          let dfrees = ref 0 in
          for seed = 1 to 30 do
            let r =
              Harness.explore ~workload ~config
                ~strategy:Strategy.Random
                ~runs:10 ~seed ~minimize:false ()
            in
            if r.Harness.violations > 0 then
              Alcotest.failf "seed %d: %s" seed (Harness.report_to_string r);
            dfrees := !dfrees + count r.Harness.signals Signal.dfrees
          done;
          if !dfrees = 0 then
            Alcotest.failf "%s/%s: no deferred frees (vacuous)"
              workload.Workloads.name (Config.to_string config))
        ebr_configs)
    (Workloads.reclaim_micros ~nthreads:2)

(* ------------------------------------------------------------------ *)
(* Init-only declarations                                              *)

(* A site declared init-only although the word it reads is rewritten
   after publication: the oracle's self-test. *)
let init_site =
  Captured_core.Site.declare ~init_only:true ~write:false
    "check.test.init_only_key"

(* Thread 0 publishes a node whose first word it stores while the node
   is captured, waits until thread 1 has committed a read of that word
   through [init_site], then (with [rewrite]) stores to the word again:
   the published word changes under a declaration that says it cannot.
   Every schedule orders the read before the rewrite. *)
let init_rewrite ~rewrite =
  {
    Workloads.name = (if rewrite then "init_rewrite" else "init_read");
    nthreads = 2;
    reclaim_oracle = false;
    floors = [];
    prepare =
      (fun config ->
        let world =
          Engine.create ~global_words:1024 ~stack_words:256 ~arena_words:1024
            ~nthreads:2
            { config with Config.orec_bits = 10 }
        in
        let arena = Engine.global_arena world in
        let ptr = Alloc.alloc arena 1 and seen = Alloc.alloc arena 1 in
        let rec wait th cell =
          if Txn.atomic th (fun tx -> Txn.read tx cell) = 0 then begin
            Txn.work th 4;
            Txn.yield_hint th;
            wait th cell
          end
        in
        let body th =
          if Txn.thread_id th = 0 then begin
            Txn.atomic th (fun tx ->
                let n = Txn.alloc tx 2 in
                Txn.write tx n 7;
                Txn.write tx ptr n);
            wait th seen;
            if rewrite then
              Txn.atomic th (fun tx ->
                  let n = Txn.read tx ptr in
                  Txn.write tx n 8)
          end
          else begin
            wait th ptr;
            Txn.atomic th (fun tx ->
                let n = Txn.read tx ptr in
                Txn.write tx seen (Txn.read_at ~site:init_site tx n))
          end
        in
        { App.world; body; verify = (fun () -> Ok ()) });
  }

let init_modes =
  configs
  @ List.map Config.with_lazy [ tree; Config.with_tvalidate tree ]
  @ [ Config.with_ebr tree; Config.compiler; Config.with_lazy Config.baseline ]

let test_init_rewrite_red_everywhere () =
  List.iter
    (fun config ->
      let name = Config.to_string config in
      let explore ~rewrite =
        Harness.explore ~workload:(init_rewrite ~rewrite) ~config
          ~strategy:Strategy.Random ~runs:20 ~seed:5 ~minimize:false ()
      in
      let clean = explore ~rewrite:false and red = explore ~rewrite:true in
      Alcotest.(check int) (name ^ ": reading alone is silent") 0
        clean.Harness.violations;
      Alcotest.(check int) (name ^ ": every rewrite flagged") red.Harness.runs
        red.Harness.violations;
      match red.Harness.first with
      | Some f ->
          Alcotest.(check string) (name ^ ": kind") "init-only-rewrite"
            f.Harness.violation.Oracle.kind
      | None -> Alcotest.failf "%s: rewrite not flagged" name)
    init_modes

let init_rd addr value = Txn.Ev_read { addr; value; cls = Txn.Elided_init }

(* The rule on hand-built histories: a raw store and another attempt's
   store to a word read init-only are flagged; a store by the attempt
   that allocated the block, or after the block was allocated again, is
   not. *)
let test_oracle_init_only_rule () =
  let kind v = Option.map (fun (v : Oracle.violation) -> v.kind) v in
  let alloc = Txn.Ev_alloc { addr = 10; size = 2 } in
  let check_kind what want events =
    Alcotest.(check (option string)) what want (kind (run_oracle events))
  in
  check_kind "raw store flagged" (Some "init-only-rewrite")
    [
      (0, Txn.Ev_begin { attempt = 0 }); (0, init_rd 10 0); (0, Txn.Ev_commit);
      (1, Txn.Ev_raw_write { addr = 10; value = 5 });
    ];
  check_kind "peer's store flagged" (Some "init-only-rewrite")
    [
      (0, Txn.Ev_begin { attempt = 0 }); (0, init_rd 10 0);
      (1, Txn.Ev_begin { attempt = 0 }); (1, wr 10 5);
    ];
  check_kind "allocating attempt exempt" None
    [
      (1, Txn.Ev_begin { attempt = 0 }); (1, alloc); (1, wr 10 5);
      (0, Txn.Ev_begin { attempt = 0 }); (0, init_rd 10 5); (0, Txn.Ev_commit);
      (1, wr 10 6); (1, Txn.Ev_abort { user = false });
    ];
  check_kind "reallocation resets" None
    [
      (0, Txn.Ev_begin { attempt = 0 }); (0, init_rd 10 0); (0, Txn.Ev_commit);
      (1, Txn.Ev_begin { attempt = 0 }); (1, alloc); (1, Txn.Ev_commit);
      (2, Txn.Ev_raw_write { addr = 10; value = 5 });
    ]

(* ------------------------------------------------------------------ *)
(* Sweep verdict floors, on synthetic cells: a cell that never         *)
(* exercised what it claims to check is vacuous, whatever the oracle   *)
(* said                                                                *)

let quiet_report =
  {
    Harness.workload = "";
    config = "";
    strategy = "random";
    runs = 40;
    distinct = 40;
    truncated = 0;
    crashes = 0;
    violations = 0;
    first = None;
    signals = Array.map (fun _ -> 0) Signal.all;
  }

(* [quiet_report] with one run's worth of [s]. *)
let recorded s =
  {
    quiet_report with
    signals = Array.map (fun s' -> if s' == s then 1 else 0) Signal.all;
  }

let check_vacuous ~what ~vacuous (cell : Harness.cell) =
  match Harness.verdict [ cell ] with
  | Ok _ -> if vacuous then Alcotest.failf "%s: passed" what
  | Error failures ->
      if not vacuous then Alcotest.fail (String.concat "\n" failures);
      Alcotest.(check (list string))
        what
        [
          Printf.sprintf "%s %s: 0 %s < 1 required (vacuous)"
            cell.Harness.workload.Workloads.name
            (Config.to_string cell.Harness.config)
            what;
        ]
        failures

(* Every workload's floors, pinned: each signal is floored by the
   workloads that exist to exercise it, and by no other. *)
let test_workload_floors () =
  let expected =
    [
      ("reread", [ "forwarded"; "line_mate" ]);
      ("linemate", [ "rescued"; "line_mate" ]);
      ("longread", [ "extended" ]);
      ("rfw", [ "rfw" ]);
      ("rollback", [ "line_mate" ]);
      ("free_race", [ "dfrees" ]);
      ("privatize_race", [ "dfrees" ]);
    ]
  in
  List.iter
    (fun (w : Workloads.t) ->
      let base = String.sub w.name 0 (String.rindex w.name '-') in
      Alcotest.(check (list string))
        w.name
        (Option.value ~default:[] (List.assoc_opt base expected))
        (List.map (fun s -> s.Signal.key) w.floors))
    (Workloads.micros ~nthreads:2
    @ Workloads.reclaim_micros ~nthreads:2
    @ [ Option.get (Workloads.find "vacation-high" ~nthreads:2) ])

let test_verdict_crash_never_fired () =
  let cell reports =
    {
      Harness.workload = Workloads.counter ~nthreads:2 ~incs:3;
      config =
        tree
        |> Config.with_fault (Some Fault.Crash_pre_commit)
        |> Config.with_durable;
      reports;
      union = 40;
    }
  in
  check_vacuous ~what:"injected crashes" ~vacuous:true (cell [ quiet_report ]);
  check_vacuous ~what:"injected crashes" ~vacuous:false
    (cell [ quiet_report; { quiet_report with crashes = 1 } ])

let test_verdict_dfrees_floor () =
  let cell workload reports =
    { Harness.workload; config = Config.with_ebr tree; reports; union = 40 }
  in
  let free_race = Workloads.free_race ~nthreads:2 ~rounds:3 in
  check_vacuous ~what:"deferred frees" ~vacuous:true
    (cell free_race [ quiet_report ]);
  check_vacuous ~what:"deferred frees" ~vacuous:false
    (cell free_race [ recorded Signal.dfrees ]);
  (* Workloads that do not exist to free carry no floor. *)
  check_vacuous ~what:"deferred frees" ~vacuous:false
    (cell (Workloads.counter ~nthreads:2 ~incs:3) [ quiet_report ])

let test_verdict_rescued_floor () =
  let cell workload reports =
    { Harness.workload; config = tree; reports; union = 40 }
  in
  let linemate = Workloads.linemate ~nthreads:2 ~rounds:3 in
  (* Its other floor, line-mate reads, is met by a run of its own. *)
  let mates = recorded Signal.line_mate in
  check_vacuous ~what:"value rescues" ~vacuous:true
    (cell linemate [ mates ]);
  check_vacuous ~what:"value rescues" ~vacuous:false
    (cell linemate [ recorded Signal.rescued; mates ]);
  check_vacuous ~what:"value rescues" ~vacuous:false
    (cell (Workloads.counter ~nthreads:2 ~incs:3) [ quiet_report ])

let test_verdict_line_mate_floor () =
  let cell workload reports =
    { Harness.workload; config = tree; reports; union = 40 }
  in
  let rollback = Workloads.rollback ~nthreads:2 ~rounds:3 in
  let what = "line-mate reads" in
  check_vacuous ~what ~vacuous:true (cell rollback [ quiet_report ]);
  check_vacuous ~what ~vacuous:false
    (cell rollback [ recorded Signal.line_mate ]);
  check_vacuous ~what ~vacuous:false
    (cell (Workloads.counter ~nthreads:2 ~incs:3) [ quiet_report ])

let test_verdict_extended_floor () =
  let cell workload reports =
    { Harness.workload; config = tree; reports; union = 40 }
  in
  let longread = Workloads.longread ~nthreads:2 ~rounds:2 in
  check_vacuous ~what:"extended lock waits" ~vacuous:true
    (cell longread [ quiet_report ]);
  check_vacuous ~what:"extended lock waits" ~vacuous:false
    (cell longread [ recorded Signal.extended ]);
  check_vacuous ~what:"extended lock waits" ~vacuous:false
    (cell (Workloads.counter ~nthreads:2 ~incs:3) [ quiet_report ])

(* The read-for-write floor: an rfw cell that acquired no orec at a
   read-for-write proved nothing, and no other workload carries it. *)
let rfw_floor_cases config =
  let cell workload reports =
    { Harness.workload; config; reports; union = 40 }
  in
  let rfw = Workloads.rfw ~nthreads:2 ~rounds:3 in
  let what = "read-for-write acquisitions" in
  check_vacuous ~what ~vacuous:true (cell rfw [ quiet_report ]);
  check_vacuous ~what ~vacuous:false (cell rfw [ recorded Signal.rfw ]);
  check_vacuous ~what ~vacuous:false
    (cell (Workloads.counter ~nthreads:2 ~incs:3) [ quiet_report ])

let test_verdict_rfw_floor () = rfw_floor_cases tree

(* Lazy versioning acquires at a read-for-write too, so its cells carry
   the same floor. *)
let test_verdict_rfw_floor_lazy () = rfw_floor_cases (Config.with_lazy tree)

let () =
  Alcotest.run "check"
    [
      ( "scheduler",
        [
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "replay fidelity" `Quick test_replay_fidelity;
          Alcotest.test_case "schedules differ" `Quick test_schedules_differ;
          Alcotest.test_case "partial release observable" `Quick
            test_partial_release_observable;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "clean history" `Quick test_oracle_clean_history;
          Alcotest.test_case "lost update" `Quick test_oracle_lost_update;
          Alcotest.test_case "zombie legal when aborted" `Quick
            test_oracle_zombie_legal_when_aborted;
          Alcotest.test_case "zombie illegal when committed" `Quick
            test_oracle_zombie_illegal_when_committed;
          Alcotest.test_case "read own write" `Quick
            test_oracle_read_own_write;
          Alcotest.test_case "partial abort rollback" `Quick
            test_oracle_partial_abort_rollback;
          Alcotest.test_case "final state" `Quick test_oracle_final_state;
          Alcotest.test_case "init-only rewrite rule" `Quick
            test_oracle_init_only_rule;
        ] );
      ( "minimize",
        [
          Alcotest.test_case "ddmin pair" `Quick test_ddmin;
          Alcotest.test_case "ddmin singleton" `Quick test_ddmin_single;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "micros clean" `Quick test_micros_clean;
          Alcotest.test_case "injected bug caught+minimized" `Quick
            test_injected_bug_caught;
          Alcotest.test_case "injected bug via dfs" `Quick
            test_injected_bug_caught_by_dfs;
          Alcotest.test_case "no false positive" `Quick
            test_clean_config_no_false_positive;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "zombie trap fires and terminates" `Quick
            test_zombie_trap_fires_and_terminates;
          Alcotest.test_case "zombie re-read terminates" `Quick
            test_zombie_reread_terminates;
          Alcotest.test_case "zombie owned spin terminates" `Quick
            test_zombie_owned_terminates;
          Alcotest.test_case "zombie elided spin terminates" `Quick
            test_zombie_elided_terminates;
          Alcotest.test_case "contained faults stay contained" `Quick
            test_contained_faults_stay_contained;
          Alcotest.test_case "stale-read flagged" `Quick
            test_stale_read_flagged;
          Alcotest.test_case "clock-stall flagged under tv" `Quick
            test_clock_stall_flagged_under_tv;
          Alcotest.test_case "redo-drop flagged under lazy" `Quick
            test_redo_drop_flagged_under_lazy;
          Alcotest.test_case "publish-partial flagged under lazy" `Quick
            test_publish_partial_flagged_under_lazy;
          Alcotest.test_case "blind-rescue flagged in every mode" `Quick
            test_blind_rescue_flagged_everywhere;
          Alcotest.test_case "skip-validation flagged on recordmix" `Quick
            test_skip_validation_flagged_on_recordmix;
          Alcotest.test_case "crash faults recover clean" `Quick
            test_crash_faults_recover_clean;
          Alcotest.test_case "clean +wal sweep silent" `Quick
            test_clean_wal_sweep_silent;
          Alcotest.test_case "seeded recovery bug caught+minimized" `Quick
            test_torn_tail_replayed_caught;
          Alcotest.test_case "clean lazy config silent" `Quick
            test_clean_lazy_config_no_false_positive;
        ] );
      ( "reclaim",
        [
          Alcotest.test_case "free race red without +ebr" `Quick
            test_free_race_red_without_ebr;
          Alcotest.test_case "privatize race red without +ebr" `Quick
            test_privatize_race_red_without_ebr;
          Alcotest.test_case "green with +ebr (30-seed torture)" `Slow
            test_reclaim_green_with_ebr_torture;
          Alcotest.test_case "init-only rewrite red in every mode" `Quick
            test_init_rewrite_red_everywhere;
        ] );
      ( "verdict",
        [
          Alcotest.test_case "every workload's floors" `Quick
            test_workload_floors;
          Alcotest.test_case "crash cell that never crashed is vacuous"
            `Quick test_verdict_crash_never_fired;
          Alcotest.test_case "free_race cell below min_dfrees is vacuous"
            `Quick test_verdict_dfrees_floor;
          Alcotest.test_case "linemate cell below min_rescued is vacuous"
            `Quick test_verdict_rescued_floor;
          Alcotest.test_case "longread cell below min_extended is vacuous"
            `Quick test_verdict_extended_floor;
          Alcotest.test_case "eager rfw cell below min_rfw is vacuous"
            `Quick test_verdict_rfw_floor;
          Alcotest.test_case "lazy rfw cell below min_rfw is vacuous"
            `Quick test_verdict_rfw_floor_lazy;
          Alcotest.test_case "rollback cell below min_line_mate is vacuous"
            `Quick test_verdict_line_mate_floor;
        ] );
    ]
