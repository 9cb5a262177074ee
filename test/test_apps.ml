open Captured_apps
module Config = Captured_stm.Config
module Stats = Captured_stm.Stats
module Engine = Captured_stm.Engine
module Alloc_log = Captured_core.Alloc_log

let check = Alcotest.(check bool)

(* Every simulated run here stops at this many virtual cycles on any
   thread ([Sched.Budget_exceeded]): a run that cannot finish, such as a
   walk round a cyclic map, fails in about a second instead of holding
   the suite.  The longest run here, an app at bench scale on four
   threads, takes under a million cycles. *)
let max_cycles = 50_000_000

let apps () = Registry.all

let configs =
  [
    Config.baseline;
    Config.runtime Alloc_log.Tree;
    Config.runtime Alloc_log.Array;
    Config.runtime Alloc_log.Filter;
    Config.with_fastpath (Config.runtime Alloc_log.Tree);
    Config.with_fastpath (Config.runtime Alloc_log.Array);
    Config.with_fastpath (Config.runtime Alloc_log.Filter);
    Config.with_tvalidate Config.baseline;
    Config.with_tvalidate (Config.runtime Alloc_log.Tree);
    Config.with_tvalidate (Config.with_fastpath (Config.runtime Alloc_log.Filter));
    Config.compiler;
    Config.audit;
  ]

(* Forwarded and line-mate reads are disjoint subsets of the
   instrumented ones: an elided read never reaches the read log, and a
   read that reaches it is answered by at most one of the two paths.
   Vacation re-reads addresses in most transactions, so its forwarding
   can never be silently off. *)
let check_forwarded app (s : Stats.t) =
  check "forwarded + line-mate <= reads - elided reads" true
    (s.Stats.reads_forwarded + s.Stats.reads_line_mate
    <= s.Stats.reads - Stats.reads_elided s);
  if List.mem app.App.name [ "vacation-high"; "vacation-low" ] then
    check "vacation forwards re-reads" true (s.Stats.reads_forwarded > 0)

(* Every app, under every configuration, at 1 and 4 simulated threads,
   must run to completion and satisfy its own verifier. *)
let test_app_config app cfg nthreads () =
  match
    App.run_checked ~max_cycles app ~nthreads ~scale:App.Test ~mode:(`Sim 7)
      cfg
  with
  | Ok r ->
      check "committed something" true (r.Engine.stats.Stats.commits > 0);
      check_forwarded app r.Engine.stats
  | Error m -> Alcotest.failf "verify failed: %s" m

(* The compiler verdicts must never contradict the precise runtime
   check: run each app in audit mode with its model's verdicts loaded. *)
let test_app_compiler_sound app () =
  Captured_core.Site.reset_verdicts ();
  let analysis =
    Captured_tmir.Capture_analysis.analyze (Lazy.force app.App.model)
  in
  Captured_tmir.Capture_analysis.apply analysis;
  let p = app.App.prepare ~nthreads:2 ~scale:App.Test Config.audit in
  let r = Engine.run_sim ~max_cycles ~seed:11 p.App.world p.App.body in
  Captured_core.Site.reset_verdicts ();
  Alcotest.(check int)
    "no static-capture violations" 0
    r.Engine.stats.Stats.audit_static_violations

(* Determinism: same seed, same simulated run. *)
let test_app_deterministic app () =
  let run () =
    let p = app.App.prepare ~nthreads:4 ~scale:App.Test Config.baseline in
    let r = Engine.run_sim ~max_cycles ~seed:3 p.App.world p.App.body in
    (r.Engine.makespan, r.Engine.stats.Stats.commits,
     r.Engine.stats.Stats.aborts)
  in
  check "deterministic" true (run () = run ())

(* Elision sanity per app: the runtime tree config should elide at least
   as many barriers as the compiler config, and apps with allocation
   inside transactions should elide a nonzero amount. *)
let test_app_elision_profile app () =
  let total_elided cfg =
    Captured_core.Site.reset_verdicts ();
    (match cfg.Config.analysis with
    | Config.Compiler ->
        Captured_tmir.Capture_analysis.apply
          (Captured_tmir.Capture_analysis.analyze (Lazy.force app.App.model))
    | _ -> ());
    let p = app.App.prepare ~nthreads:1 ~scale:App.Test cfg in
    let r = Engine.run_sim ~max_cycles ~seed:5 p.App.world p.App.body in
    Captured_core.Site.reset_verdicts ();
    Stats.reads_elided r.Engine.stats + Stats.writes_elided r.Engine.stats
  in
  let tree = total_elided (Config.runtime Alloc_log.Tree) in
  let compiler = total_elided Config.compiler in
  check "tree >= compiler" true (tree >= compiler);
  if
    List.mem app.App.name
      [
        "vacation-high"; "vacation-low"; "genome"; "intruder"; "yada"; "bayes";
      ]
  then begin
    check "allocation-heavy app elides (tree)" true (tree > 0);
    check "allocation-heavy app elides (compiler)" true (compiler > 0)
  end

(* Bench-scale smoke: the parameters the harness really uses must verify
   too (Test scale alone could hide size-dependent bugs). *)
let test_app_bench_scale app () =
  match
    App.run_checked ~max_cycles app ~nthreads:4 ~scale:App.Bench
      ~mode:(`Sim 2) Config.baseline
  with
  | Ok r -> check "ran" true (r.Engine.stats.Stats.commits > 0)
  | Error m -> Alcotest.failf "bench-scale verify failed: %s" m

(* Cross-config semantics matrix: the capture-check fast path and
   timestamp-based validation must both be invisible to outcomes,
   separately and composed.  For every base analysis, all four
   {fastpath, tvalidate} combinations run under the same seed and must
   verify with identical commits and user aborts.  (Conflict aborts may
   differ — the modes detect doomed transactions at different instants —
   but apps do a fixed amount of work, so what commits is
   workload-determined.)  Elision is orthogonal to validation strategy.
   The fast path adds elisions only through the array backend's
   saturation promotion, and its site tier removes at most one per
   bypassed access. *)
let mode_combos =
  [ (false, false); (true, false); (false, true); (true, true) ]

let test_app_mode_matrix app () =
  List.iter
    (fun (base_name, base) ->
      let run (fp, tv) =
        let cfg =
          base |> Config.with_fastpath ~on:fp |> Config.with_tvalidate ~on:tv
        in
        match
          App.run_checked ~max_cycles app ~nthreads:1 ~scale:App.Test
            ~mode:(`Sim 7) cfg
        with
        | Ok r -> r
        | Error m ->
            Alcotest.failf "verify failed (%s fp=%b tv=%b): %s" base_name fp
              tv m
      in
      let results = List.map (fun c -> (c, run c)) mode_combos in
      let _, base_r = List.hd results in
      let elided r =
        Stats.reads_elided r.Engine.stats + Stats.writes_elided r.Engine.stats
      in
      List.iter
        (fun ((fp, tv), r) ->
          let label = Printf.sprintf "%s fp=%b tv=%b" base_name fp tv in
          Alcotest.(check int)
            (label ^ " commits") base_r.Engine.stats.Stats.commits
            r.Engine.stats.Stats.commits;
          Alcotest.(check int)
            (label ^ " user aborts")
            base_r.Engine.stats.Stats.user_aborts
            r.Engine.stats.Stats.user_aborts;
          if fp then begin
            let lost = elided (List.assoc (false, tv) results) - elided r in
            (match base.Config.analysis with
            | Config.Baseline
            | Config.Runtime (Alloc_log.Tree | Alloc_log.Filter) ->
                check (label ^ " elides no more than without fp") true
                  (lost >= 0)
            | _ -> ());
            check
              (label ^ " loses at most one elision per bypass")
              true
              (lost <= r.Engine.stats.Stats.capture_site_bypasses)
          end
          else
            Alcotest.(check int)
              (label ^ " elisions identical")
              (elided base_r) (elided r);
          if not tv then
            check (label ^ " no clock advances") true
              (r.Engine.stats.Stats.clock_advances = 0))
        results)
    (("baseline", Config.baseline)
    :: List.map
         (fun backend ->
           (Alloc_log.backend_name backend, Config.runtime backend))
         Alloc_log.all_backends)

(* Hybrid config: verifies and still elides at least as much as nothing. *)
let test_app_hybrid app () =
  match
    App.run_checked ~max_cycles app ~nthreads:4 ~scale:App.Test ~mode:(`Sim 7)
      (Result.get_ok (Config.of_string "tree+sf"))
  with
  | Ok r ->
      check "ran" true (r.Engine.stats.Stats.commits > 0);
      (* The hybrid must not lose captured-write elision on
         allocation-heavy apps. *)
      if List.mem app.App.name [ "vacation-high"; "yada"; "intruder" ] then
        check "still elides" true (Stats.writes_elided r.Engine.stats > 0)
  | Error m -> Alcotest.failf "hybrid verify failed: %s" m

(* Durable run: under a capture-eliding [+wal] config every app must
   still verify, recovery must replay every synced commit record, and
   the allocation-heavy apps must skip a nonzero number of captured
   writes in the log (the WAL elision payoff on real workloads). *)
module Wal = Captured_stm.Wal

let test_app_durable app () =
  let cfg =
    Config.runtime ~scope:Config.heap_write_only_scope Alloc_log.Tree
    |> Config.with_lazy |> Config.with_tvalidate |> Config.with_durable
  in
  let p = app.App.prepare ~nthreads:2 ~scale:App.Test cfg in
  let w = Wal.create ~group:cfg.Config.wal_group () in
  Engine.attach_wal p.App.world w;
  let r = Engine.run_sim ~max_cycles ~seed:9 p.App.world p.App.body in
  Wal.sync w;
  (match p.App.verify () with
  | Ok () -> ()
  | Error m -> Alcotest.failf "durable verify failed: %s" m);
  let rc =
    match Wal.recover w with
    | Ok rc -> rc
    | Error m -> Alcotest.failf "recovery failed: %s" m
  in
  Alcotest.(check int)
    "recovery replays every synced commit"
    (Wal.synced_seq w)
    (List.length rc.Wal.r_applied_seqs);
  check "clean log tail" true (not rc.Wal.r_torn && not rc.Wal.r_corrupt);
  check "logged something" true (r.Engine.stats.Stats.wal_records > 0);
  check_forwarded app r.Engine.stats;
  if
    List.mem app.App.name
      [ "vacation-high"; "vacation-low"; "genome"; "intruder"; "yada" ]
  then
    check "captured writes skip the log" true
      (r.Engine.stats.Stats.wal_skips > 0)

(* One write set for both engines: at one thread, eager and lazy
   versioning run the same transactions, so every eager write-set insert
   is a lazy buffer insert (no app rewrites an outer entry inside a
   nested scope), and both engines log the same commit records. *)
let test_app_write_set_law app () =
  let run spelling =
    let cfg = Result.get_ok (Config.of_string spelling) in
    let p = app.App.prepare ~nthreads:1 ~scale:App.Test cfg in
    Engine.attach_wal p.App.world (Wal.create ~group:cfg.Config.wal_group ());
    let r = Engine.run_sim ~max_cycles ~seed:1 p.App.world p.App.body in
    (match p.App.verify () with
    | Ok () -> ()
    | Error m -> Alcotest.failf "%s verify failed: %s" spelling m);
    r.Engine.stats
  in
  let eager = run "tree+fp+wal" and lazy_ = run "tree+fp+lazy+wal" in
  Alcotest.(check int)
    "eager undo entries = lazy buffer inserts" eager.Stats.undo_entries
    lazy_.Stats.redo_inserts;
  Alcotest.(check int) "same WAL bytes" eager.Stats.wal_bytes
    lazy_.Stats.wal_bytes

let suite_for app =
  let cases =
    List.concat_map
      (fun cfg ->
        List.map
          (fun n ->
            Alcotest.test_case
              (Printf.sprintf "%s n=%d" (Config.to_string cfg) n)
              `Quick
              (test_app_config app cfg n))
          [ 1; 4 ])
      configs
    @ [
        Alcotest.test_case "compiler sound" `Quick
          (test_app_compiler_sound app);
        Alcotest.test_case "deterministic" `Quick (test_app_deterministic app);
        Alcotest.test_case "elision profile" `Quick
          (test_app_elision_profile app);
        Alcotest.test_case "bench scale" `Quick (test_app_bench_scale app);
        Alcotest.test_case "mode matrix" `Quick (test_app_mode_matrix app);
        Alcotest.test_case "hybrid" `Quick (test_app_hybrid app);
        Alcotest.test_case "durable wal" `Quick (test_app_durable app);
        Alcotest.test_case "write-set law" `Quick
          (test_app_write_set_law app);
      ]
  in
  (app.App.name, cases)

(* Intruder under the benchmark's durable config must scale: its decode
   transaction pops the next packet as its last access, so the input
   queue's head is held only from that pop to the commit.  At test scale
   and seed 1 the 4-thread makespan is 0.40 of the 1-thread one; with
   the pop first, the head was held through every decode and the ratio
   was 0.85. *)
let test_intruder_scales () =
  let app = Option.get (Registry.find "intruder") in
  let cfg =
    Result.get_ok (Config.of_string "tree+scope:hw+tv+lazy+wal+ebr")
  in
  let makespan nthreads =
    match
      App.run_checked ~max_cycles app ~nthreads ~scale:App.Test ~mode:(`Sim 1)
        cfg
    with
    | Ok r -> r.Engine.makespan
    | Error m -> Alcotest.failf "intruder at %d threads: %s" nthreads m
  in
  let m1 = makespan 1 and m4 = makespan 4 in
  ignore (makespan 16 : int);
  check "4-thread makespan <= 0.45 x 1-thread" true
    (float_of_int m4 <= 0.45 *. float_of_int m1)

(* A reservation whose type word names no resource table is reported
   by vacation's verifier, naming the customer and the reservation, not
   raised as an out-of-bounds index.  Records as in vacation.ml: a
   customer is {id, reservation list}, a reservation's info record
   {type, resource id, price}. *)
let test_vacation_bad_type_word () =
  let module Access = Captured_tstruct.Access in
  let module Tmap = Captured_tstruct.Tmap in
  let module Tlist = Captured_tstruct.Tlist in
  let w = Engine.create ~nthreads:1 Config.baseline in
  let acc = Access.of_arena (Engine.global_arena w) in
  let site = Captured_core.Site.anonymous_write in
  let customers = Tmap.create acc in
  let info = acc.Access.alloc 3 in
  let reserve ~cid ~key ~rtype =
    let c = acc.Access.alloc 2 and lst = Tlist.create acc in
    acc.Access.write ~site c cid;
    acc.Access.write ~site (c + 1) lst;
    acc.Access.write ~site info rtype;
    acc.Access.write ~site (info + 1) 5;
    acc.Access.write ~site (info + 2) 100;
    ignore (Tlist.insert acc lst ~key ~value:info : bool);
    ignore (Tmap.insert acc customers ~key:cid ~value:c : bool)
  in
  reserve ~cid:3 ~key:41 ~rtype:1;
  (match Vacation.tally_reservations acc customers with
  | Ok t ->
      Alcotest.(check (option int)) "tallied" (Some 1)
        (Hashtbl.find_opt t (1, 5))
  | Error m -> Alcotest.failf "a sound reservation failed: %s" m);
  acc.Access.write ~site info 7;
  match Vacation.tally_reservations acc customers with
  | Ok _ -> Alcotest.fail "a type word of 7 passed"
  | Error m ->
      Alcotest.(check string) "names the reservation"
        (Printf.sprintf
           "customer 3: reservation 41 (info %d) has type 7, not in 0..2"
           info)
        m

(* The budget at work: a treap whose root is its own left child sends
   a lookup below every key round the cycle until the budget ends it. *)
let test_cyclic_map_fails_within_budget () =
  let module Access = Captured_tstruct.Access in
  let module Tmap = Captured_tstruct.Tmap in
  let module Txn = Captured_stm.Txn in
  let module Memory = Captured_tmem.Memory in
  let w = Engine.create ~nthreads:1 (Config.runtime Alloc_log.Tree) in
  let setup = Access.of_arena (Engine.global_arena w) in
  let m = Tmap.create setup in
  for k = 1 to 7 do
    ignore (Tmap.insert setup m ~key:k ~value:k : bool)
  done;
  let mem = Engine.memory w in
  let root = Memory.get mem m in
  (* Node layout as in tmap.ml: key, value, left, right. *)
  Memory.set mem (root + 2) root;
  let started = Sys.time () in
  (match
     Engine.run_sim ~max_cycles ~seed:1 w (fun th ->
         ignore
           (Txn.atomic th (fun tx -> Tmap.find (Access.of_tx tx) m 0)
             : int option))
   with
  | _ -> Alcotest.fail "a walk round a cyclic map finished"
  | exception Captured_sim.Sched.Budget_exceeded { tid; cycles } ->
      Alcotest.(check int) "the walking thread" 0 tid;
      check "stopped at the budget" true (cycles >= max_cycles));
  check "within seconds" true (Sys.time () -. started < 30.)

let () =
  Alcotest.run "apps"
    (List.map suite_for (apps ())
    @ [
        ( "scaling",
          [
            Alcotest.test_case "intruder 1/4/16 threads" `Quick
              test_intruder_scales;
          ] );
        ( "vacation verifier",
          [
            Alcotest.test_case "bad type word is an error" `Quick
              test_vacation_bad_type_word;
          ] );
        ( "budget",
          [
            Alcotest.test_case "cyclic map fails within the budget" `Quick
              test_cyclic_map_fails_within_budget;
          ] );
      ])
