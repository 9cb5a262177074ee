(* Reproduction harness: regenerates every table and figure of the paper's
   evaluation (Section 4), plus a Bechamel micro-benchmark section for the
   barrier-cost claims and an ablation section for the design choices
   DESIGN.md calls out.

   Usage: main.exe [--quick] [--only fig8,table1,...] [--app NAME,...]
   Sections: fig8 fig9 table1 table2 fig10 fig11a fig11b micro ablation
   fastpath tvalidate contention scale lazyab wal reclaim *)

open Captured_apps
module Config = Captured_stm.Config
module Cm = Captured_stm.Cm
module Engine = Captured_stm.Engine
module Stats = Captured_stm.Stats
module Txn = Captured_stm.Txn
module Alloc_log = Captured_core.Alloc_log
module Ustats = Captured_util.Stats

(* ------------------------------------------------------------------ *)
(* CLI                                                                  *)

let quick = ref false
let only : string list ref = ref []
let only_apps : string list ref = ref []

let known_sections =
  [
    "fig8"; "fig9"; "table1"; "table2"; "fig10"; "fig11a"; "fig11b"; "micro";
    "ablation"; "fastpath"; "tvalidate"; "contention"; "scale"; "lazyab";
    "wal"; "reclaim";
  ]

let scale_domains : int list ref = ref []

let () =
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
        quick := true;
        parse rest
    | "--only" :: spec :: rest ->
        only := String.split_on_char ',' spec;
        (* Fail fast on typos, exactly like --app does for workload names:
           a silently-ignored section name would report "done." having
           measured nothing. *)
        List.iter
          (fun section ->
            if not (List.mem section known_sections) then begin
              Printf.eprintf "error: unknown section %s (try: %s)\n%!" section
                (String.concat " " known_sections);
              exit 2
            end)
          !only;
        parse rest
    | "--app" :: spec :: rest ->
        only_apps := String.split_on_char ',' spec;
        parse rest
    | "--domains" :: spec :: rest ->
        (try
           scale_domains :=
             List.map int_of_string (String.split_on_char ',' spec)
         with Failure _ ->
           Printf.eprintf "error: --domains wants e.g. 1,2,4\n%!";
           exit 2);
        if List.exists (fun d -> d < 1) !scale_domains then begin
          Printf.eprintf "error: --domains entries must be >= 1\n%!";
          exit 2
        end;
        parse rest
    | arg :: rest ->
        Printf.eprintf "warning: ignoring argument %s\n%!" arg;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv))

let wants section = !only = [] || List.mem section !only
let scale () = if !quick then App.Test else App.Bench
let sim_threads = 16

let apps =
  List.iter
    (fun name ->
      if not (List.exists (fun app -> app.App.name = name) Registry.all)
      then begin
        Printf.eprintf "error: unknown app %s (try: %s)\n%!" name
          (String.concat " " (Registry.names ()));
        exit 2
      end)
    !only_apps;
  List.filter
    (fun app -> !only_apps = [] || List.mem app.App.name !only_apps)
    Registry.all

let headline fmt =
  Printf.ksprintf
    (fun s ->
      Printf.printf "\n%s\n%s\n" s (String.make (String.length s) '='))
    fmt

let row_label name = Printf.printf "%-14s" name

(* A configuration as [Config.to_string] spells it, which is also how
   every JSON line and table header below names it. *)
let config s =
  match Config.of_string s with Ok c -> c | Error m -> invalid_arg m

(* ------------------------------------------------------------------ *)
(* Shared run helpers                                                   *)

let run_sim app cfg ~nthreads ~seed =
  App.run app ~nthreads ~scale:(scale ()) ~mode:(`Sim seed) cfg

let run_native1 app cfg =
  App.run app ~nthreads:1 ~scale:(scale ()) ~mode:`Native cfg

let improvement ~base x = 100. *. (base -. x) /. base

(* Percent change of [x] from [base] (negative = fewer cycles). *)
let change ~base x =
  -.improvement ~base:(float_of_int (max 1 base)) (float_of_int x)

let str s = "\"" ^ s ^ "\""

(* Every section's JSON line: the section's own keys, every counter
   ({!Stats.json_fields}), then the abort ratio, the makespan (cycles; ns
   on native runs) and the wall time. *)
let json_line ~section extras (r : Engine.result) =
  let s = r.Engine.stats in
  Printf.printf
    "{%s,%s,\"abort_ratio\":%.3f,\"makespan\":%d,\"wall_ms\":%.3f}\n"
    (String.concat ","
       (List.map
          (fun (k, v) -> Printf.sprintf "\"%s\":%s" k v)
          (("section", str section) :: extras)))
    (Stats.json_fields s) (Stats.abort_ratio s) r.Engine.makespan
    (1000. *. r.Engine.wall)

(* Named counters of one run, ["name value"], for the [#] summary lines. *)
let show (s : Stats.t) names =
  String.concat "  "
    (List.map
       (fun n ->
         let c = List.find (fun c -> c.Stats.name = n) Stats.counters in
         Printf.sprintf "%s %d" n (c.Stats.get s))
       names)

(* Every counter that differs between two runs, ["name a->b"]. *)
let moved (a : Stats.t) (b : Stats.t) =
  String.concat "  "
    (List.filter_map
       (fun c ->
         let x = c.Stats.get a and y = c.Stats.get b in
         if x = y then None
         else Some (Printf.sprintf "%s %d->%d" c.Stats.name x y))
       Stats.counters)

let run_json ~section ~nthreads app cfg =
  let r = run_sim app cfg ~nthreads ~seed:1 in
  json_line ~section
    [
      ("app", str app.App.name);
      ("config", str (Config.to_string cfg));
      ("threads", string_of_int nthreads);
    ]
    r;
  r

(* The A/B sections: [app] on one thread under [off] and [on], same seed.
   The change may move costs, never outcomes, so commits and user aborts
   must match (each app verified its own invariants inside [run_sim]).
   Prints both JSON lines, then a [#] line with the makespan change and
   every counter that moved; returns the [on] run. *)
let ab ~section app off on =
  let a = run_json ~section ~nthreads:1 app off in
  let b = run_json ~section ~nthreads:1 app on in
  let sa = a.Engine.stats and sb = b.Engine.stats in
  assert (sa.Stats.commits = sb.Stats.commits);
  assert (sa.Stats.user_aborts = sb.Stats.user_aborts);
  Printf.printf "# %-14s %s vs %s  makespan %+5.1f%%  %s\n%!" app.App.name
    (Config.to_string off) (Config.to_string on)
    (change ~base:a.Engine.makespan b.Engine.makespan)
    (moved sa sb);
  b

(* ------------------------------------------------------------------ *)
(* Figure 8: breakdown of compiler-inserted barriers                    *)

let fig8 () =
  headline
    "Figure 8: memory-access breakdown (1 thread, %% of compiler-inserted \
     barriers)";
  Printf.printf
    "%-14s | %28s | %28s | %28s\n" ""
    "reads  heap/stack/other/req" "writes heap/stack/other/req"
    "all    heap/stack/other/req";
  List.iter
    (fun app ->
      let r = run_sim app Config.audit ~nthreads:1 ~seed:1 in
      let s = r.Engine.stats in
      let line h st o req =
        let tot = float_of_int (max 1 (h + st + o + req)) in
        Printf.sprintf "%5.1f %5.1f %5.1f %5.1f"
          (100. *. float_of_int h /. tot)
          (100. *. float_of_int st /. tot)
          (100. *. float_of_int o /. tot)
          (100. *. float_of_int req /. tot)
      in
      row_label app.App.name;
      Printf.printf " | %28s | %28s | %28s\n"
        (line s.Stats.audit_reads_heap s.Stats.audit_reads_stack
           s.Stats.audit_reads_other s.Stats.audit_reads_required)
        (line s.Stats.audit_writes_heap s.Stats.audit_writes_stack
           s.Stats.audit_writes_other s.Stats.audit_writes_required)
        (line
           (s.Stats.audit_reads_heap + s.Stats.audit_writes_heap)
           (s.Stats.audit_reads_stack + s.Stats.audit_writes_stack)
           (s.Stats.audit_reads_other + s.Stats.audit_writes_other)
           (s.Stats.audit_reads_required + s.Stats.audit_writes_required)))
    apps

(* ------------------------------------------------------------------ *)
(* Figure 9: portion of barriers removed per technique                  *)

let fig9_configs = List.map config [ "tree"; "array"; "filtering"; "compiler" ]

let fig9 () =
  headline "Figure 9: %% of barriers removed by each capture-analysis technique";
  Printf.printf "%-14s | %s\n" ""
    (String.concat " | "
       (List.map
          (fun c -> Printf.sprintf "%9s r%% w%%" (Config.to_string c))
          fig9_configs));
  List.iter
    (fun app ->
      row_label app.App.name;
      List.iter
        (fun cfg ->
          let r = run_sim app cfg ~nthreads:1 ~seed:1 in
          let s = r.Engine.stats in
          (* Sanity: compiler runs must never have violated soundness. *)
          assert (s.Stats.audit_static_violations = 0);
          let rp =
            100. *. float_of_int (Stats.reads_elided s)
            /. float_of_int (max 1 s.Stats.reads)
          in
          let wp =
            100. *. float_of_int (Stats.writes_elided s)
            /. float_of_int (max 1 s.Stats.writes)
          in
          Printf.printf " |     %5.1f %5.1f" rp wp)
        fig9_configs;
      print_newline ())
    apps

(* ------------------------------------------------------------------ *)
(* Table 1: abort-to-commit ratio at 16 threads                         *)

let table_configs = Config.baseline :: fig9_configs

(* A table's header row: one right-aligned column per configuration, as
   wide as the widest name; the rows print their cells [col_width] wide. *)
let col_width configs =
  List.fold_left
    (fun w c -> max w (String.length (Config.to_string c)))
    9 configs

let config_header configs =
  Printf.printf "%-14s" "";
  List.iter
    (fun c -> Printf.printf " %*s" (col_width configs) (Config.to_string c))
    configs;
  print_newline ()

let table1 () =
  let reps = if !quick then 1 else 3 in
  headline "Table 1: abort-to-commit ratio at %d threads (mean of %d seeds)"
    sim_threads reps;
  config_header table_configs;
  List.iter
    (fun app ->
      row_label app.App.name;
      List.iter
        (fun cfg ->
          let ratios =
            List.init reps (fun k ->
                let r = run_sim app cfg ~nthreads:sim_threads ~seed:(1 + k) in
                Stats.abort_ratio r.Engine.stats)
          in
          Printf.printf " %9.2f"
            (List.fold_left ( +. ) 0. ratios /. float_of_int reps))
        table_configs;
      print_newline ())
    apps

(* ------------------------------------------------------------------ *)
(* Table 2: %% relative standard deviation at 16 threads (5 runs)       *)

let table2 () =
  let reps = if !quick then 3 else 5 in
  headline "Table 2: %% relative standard deviation at %d threads (%d runs)"
    sim_threads reps;
  config_header table_configs;
  List.iter
    (fun app ->
      row_label app.App.name;
      List.iter
        (fun cfg ->
          let samples =
            List.init reps (fun k ->
                let r =
                  run_sim app cfg ~nthreads:sim_threads ~seed:(100 + k)
                in
                float_of_int r.Engine.makespan)
          in
          Printf.printf " %9.2f" (Ustats.rel_stddev_percent (Ustats.of_list samples)))
        table_configs;
      print_newline ())
    apps

(* ------------------------------------------------------------------ *)
(* Figure 10: single-thread improvement (native wall-clock)             *)

let scope_configs =
  List.map config [ "tree"; "tree+scope:shw"; "tree+scope:hw"; "compiler" ]

let fig10 () =
  let reps = if !quick then 2 else 5 in
  headline
    "Figure 10: single-thread improvement vs baseline (native wall-clock, \
     median of %d, %%; negative = slowdown)"
    reps;
  config_header scope_configs;
  List.iter
    (fun app ->
      (* Batch enough fresh runs per sample that one sample spans >=20ms:
         single runs are milliseconds and wall-clock noise would swamp
         them. *)
      let probe = (run_native1 app Config.baseline).Engine.wall in
      let batch =
        max (if !quick then 1 else 3) (min 64 (int_of_float (0.02 /. max 1e-5 probe)))
      in
      let sample cfg =
        List.fold_left ( +. ) 0.
          (List.init batch (fun _ -> (run_native1 app cfg).Engine.wall))
      in
      let median cfg =
        ignore (sample cfg : float) (* warm-up *);
        Ustats.median (List.init reps (fun _ -> sample cfg))
      in
      let base = median Config.baseline in
      row_label app.App.name;
      List.iter
        (fun cfg ->
          Printf.printf " %*.1f" (col_width scope_configs)
            (improvement ~base (median cfg)))
        scope_configs;
      print_newline ();
      Printf.printf "%!")
    apps

(* ------------------------------------------------------------------ *)
(* Figure 11a/11b: 16-thread improvement (simulated makespan)           *)

let fig11 ~name configs =
  let reps = if !quick then 1 else 3 in
  headline
    "Figure %s: improvement vs baseline at %d threads (virtual makespan,      median of %d seeds, %%)"
    name sim_threads reps;
  config_header configs;
  List.iter
    (fun app ->
      let makespan cfg =
        Captured_util.Stats.median
          (List.init reps (fun k ->
               float_of_int
                 (run_sim app cfg ~nthreads:sim_threads ~seed:(1 + k))
                   .Engine.makespan))
      in
      let base = makespan Config.baseline in
      row_label app.App.name;
      List.iter
        (fun cfg ->
          Printf.printf " %*.1f" (col_width configs)
            (improvement ~base (makespan cfg)))
        configs;
      print_newline ())
    apps

let fig11a () = fig11 ~name:"11a" scope_configs

let fig11b_configs =
  List.map config
    [ "tree+scope:hw"; "array+scope:hw"; "filtering+scope:hw"; "compiler" ]

let fig11b () = fig11 ~name:"11b (heap, write-only runtime checks)" fig11b_configs

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks (Bechamel): barrier and capture-check costs         *)

let micro () =
  headline "Micro: barrier & capture-check latencies (Bechamel, ns per txn)";
  let open Bechamel in
  let open Toolkit in
  (* One world per flavour; each measured closure runs one transaction of
     64 accesses (plus begin/commit), so figures are directly comparable. *)
  let accesses = 64 in
  let mk_world cfg =
    let w = Engine.create ~nthreads:1 cfg in
    let cell =
      Captured_tmem.Alloc.alloc (Engine.global_arena w) accesses
    in
    let th = Engine.setup_thread w in
    (th, cell)
  in
  let txn_shared_reads cfg =
    let th, cell = mk_world cfg in
    Staged.stage (fun () ->
        Txn.atomic th (fun tx ->
            for k = 0 to accesses - 1 do
              ignore (Txn.read tx (cell + k) : int)
            done))
  in
  let txn_shared_writes cfg =
    let th, cell = mk_world cfg in
    let i = ref 0 in
    Staged.stage (fun () ->
        incr i;
        Txn.atomic th (fun tx ->
            for k = 0 to accesses - 1 do
              Txn.write tx (cell + k) !i
            done))
  in
  let txn_captured_writes cfg =
    let th, _ = mk_world cfg in
    Staged.stage (fun () ->
        Txn.atomic th (fun tx ->
            let b = Txn.alloc tx accesses in
            for k = 0 to accesses - 1 do
              Txn.write tx (b + k) k
            done;
            Txn.free tx b))
  in
  let txn_captured_reads cfg =
    let th, _ = mk_world cfg in
    Staged.stage (fun () ->
        Txn.atomic th (fun tx ->
            let b = Txn.alloc tx accesses in
            Txn.write tx b 1;
            for _ = 1 to accesses do
              ignore (Txn.read tx b : int)
            done;
            Txn.free tx b))
  in
  (* Re-reads: 64 lines, each read at two line-mates [m] and [m + 1]
     (one read-log entry per line, naming the address read last).  Then
     [reread_passes] passes re-read [m + 1] — forwarded from the entry —
     or alternate [m], [m + 1], ... so each re-read names the address the
     entry does not and takes the full barrier (orec load, data load,
     orec load, map probe).  [None]: the first pass only, the baseline
     both are measured against. *)
  let reread_passes = 64 in
  let txn_rereads forwarded =
    let line = Captured_stm.Orec.line_words in
    let w = Engine.create ~nthreads:1 Config.baseline in
    let cell =
      Captured_tmem.Alloc.alloc (Engine.global_arena w) (accesses * line)
    in
    let th = Engine.setup_thread w in
    let lines = Array.init accesses (fun k -> cell + (k * line)) in
    Staged.stage (fun () ->
        Txn.atomic th (fun tx ->
            Array.iter
              (fun m ->
                ignore (Txn.read tx m : int);
                ignore (Txn.read tx (m + 1) : int))
              lines;
            match forwarded with
            | None -> ()
            | Some fwd ->
                for p = 1 to reread_passes do
                  let d = if fwd then 1 else (p + 1) land 1 in
                  Array.iter (fun m -> ignore (Txn.read tx (m + d) : int)) lines
                done))
  in
  let empty_txn =
    let th, _ = mk_world Config.baseline in
    Staged.stage (fun () -> Txn.atomic th (fun _ -> ()))
  in
  let direct_reads =
    let th, cell = mk_world Config.baseline in
    Staged.stage (fun () ->
        for k = 0 to accesses - 1 do
          ignore (Txn.raw_read th (cell + k) : int)
        done)
  in
  let cfg_tree = Config.runtime Alloc_log.Tree in
  let cfg_array = Config.runtime Alloc_log.Array in
  let cfg_filter = Config.runtime Alloc_log.Filter in
  let tests =
    Test.make_grouped ~name:"stm"
      [
        Test.make ~name:"empty-txn" empty_txn;
        Test.make ~name:"direct-64-reads" direct_reads;
        Test.make ~name:"baseline-64-shared-reads" (txn_shared_reads Config.baseline);
        Test.make ~name:"baseline-64-shared-writes" (txn_shared_writes Config.baseline);
        Test.make ~name:"baseline-64-captured-writes"
          (txn_captured_writes Config.baseline);
        Test.make ~name:"tree-64-captured-writes" (txn_captured_writes cfg_tree);
        Test.make ~name:"array-64-captured-writes" (txn_captured_writes cfg_array);
        Test.make ~name:"filter-64-captured-writes" (txn_captured_writes cfg_filter);
        Test.make ~name:"tree-64-captured-reads" (txn_captured_reads cfg_tree);
        Test.make ~name:"tree-64-shared-reads(miss)" (txn_shared_reads cfg_tree);
        Test.make ~name:"array-64-shared-reads(miss)" (txn_shared_reads cfg_array);
        Test.make ~name:"filter-64-shared-reads(miss)" (txn_shared_reads cfg_filter);
        Test.make ~name:"baseline-128-line-mate-reads" (txn_rereads None);
        Test.make ~name:"baseline-...+4096-rereads(forwarded)"
          (txn_rereads (Some true));
        Test.make ~name:"baseline-...+4096-rereads(full)" (txn_rereads (Some false));
      ]
  in
  let cfg =
    Benchmark.cfg ~limit:2000
      ~quota:(Time.second (if !quick then 0.1 else 0.4))
      ~kde:None ()
  in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let names = Hashtbl.fold (fun k _ acc -> k :: acc) results [] in
  List.iter
    (fun name ->
      match Analyze.OLS.estimates (Hashtbl.find results name) with
      | Some (est :: _) -> Printf.printf "%-42s %12.1f ns\n" name est
      | Some [] | None -> Printf.printf "%-42s %12s\n" name "n/a")
    (List.sort compare names);
  (* The simulator prices a forwarded re-read as an owned read; set the
     native per-read costs beside that ratio. *)
  let est name =
    match Hashtbl.find_opt results ("stm/" ^ name) with
    | Some r -> (
        match Analyze.OLS.estimates r with Some (e :: _) -> Some e | _ -> None)
    | None -> None
  in
  match
    ( est "baseline-128-line-mate-reads",
      est "baseline-...+4096-rereads(forwarded)",
      est "baseline-...+4096-rereads(full)" )
  with
  | Some base, Some fwd, Some full ->
      let per t = (t -. base) /. float_of_int (reread_passes * accesses) in
      let module Costs = Captured_stm.Costs in
      Printf.printf
        "# re-read per read: forwarded %.1f ns, full barrier %.1f ns, ratio \
         %.2f (simulated %d / %d = %.2f)\n"
        (per fwd) (per full)
        (per fwd /. per full)
        Costs.read_owned Costs.read_barrier
        (float_of_int Costs.read_owned /. float_of_int Costs.read_barrier)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Ablations                                                            *)

let ablation () =
  headline "Ablation: design choices";
  (* (a) Orec table size vs false conflicts (vacation-high): baseline
     aborts and makespan per table size, beside the makespan capture
     analysis (tree+fp) reaches on the same table.  The capture gain left
     once a large table has removed the aliasing is barrier savings; the
     rest of it at small tables is aliasing that elided accesses avoid. *)
  let reps = if !quick then 1 else 3 in
  Printf.printf
    "\n(a) orec table bits vs abort ratio and makespan (vacation-high, %d \
     thr, mean of %d seeds)\n"
    sim_threads reps;
  let vacation = Option.get (Registry.find "vacation-high") in
  let mean_run cfg bits =
    let runs =
      List.init reps (fun k ->
          run_sim vacation { cfg with Config.orec_bits = bits }
            ~nthreads:sim_threads ~seed:(1 + k))
    in
    let mean f =
      List.fold_left (fun acc r -> acc +. f r) 0. runs /. float_of_int reps
    in
    ( mean (fun r -> Stats.abort_ratio r.Engine.stats),
      mean (fun r -> float_of_int r.Engine.makespan) )
  in
  List.iter
    (fun bits ->
      let ratio, base = mean_run Config.baseline bits in
      let _, fp =
        mean_run (Config.with_fastpath (Config.runtime Alloc_log.Tree)) bits
      in
      Printf.printf
        "  bits=%2d  abort/commit=%.3f  makespan=%.0f  tree+fp makespan=%.0f \
         (capture gain %.1f%%)\n"
        bits ratio base fp (improvement ~base fp))
    [ 8; 10; 12; 14; 17; 18 ];
  (* (c) Range-array capacity (yada, write elision rate). *)
  Printf.printf "\n(c) range-array capacity vs writes elided (yada, 1 thr)\n";
  List.iter
    (fun cap ->
      let cfg =
        { (Config.runtime Alloc_log.Array) with Config.array_capacity = cap }
      in
      let r =
        App.run (Option.get (Registry.find "yada")) ~nthreads:1
          ~scale:(scale ()) ~mode:(`Sim 1) cfg
      in
      let s = r.Engine.stats in
      Printf.printf "  capacity=%2d  writes elided=%4.1f%%\n" cap
        (100. *. float_of_int (Stats.writes_elided s)
        /. float_of_int (max 1 s.Stats.writes)))
    [ 1; 2; 4; 8; 16 ];
  (* (d') Hybrid (paper future work): compiler-proved shared sites skip
     the runtime checks — recovering baseline speed where there is nothing
     to elide while keeping full elision elsewhere. *)
  Printf.printf
    "\n(e) hybrid static-filter (runtime tree, full scope, 1 thr makespans)\n";
  List.iter
    (fun appname ->
      let run cfg =
        (App.run (Option.get (Registry.find appname)) ~nthreads:1
           ~scale:(scale ()) ~mode:(`Sim 1) cfg)
          .Engine.makespan
      in
      Printf.printf "  %-12s baseline=%8d  runtime=%8d  hybrid=%8d\n" appname
        (run Config.baseline)
        (run (Config.runtime Alloc_log.Tree))
        (run (Config.runtime_hybrid Alloc_log.Tree)))
    [ "kmeans-high"; "ssca2"; "labyrinth"; "vacation-high" ];
  (* (d) Check scope: runtime checks on reads are what hurts kmeans. *)
  Printf.printf "\n(d) runtime check scope vs makespan (kmeans-high, 1 thr)\n";
  List.iter
    (fun cfg ->
      let r =
        App.run (Option.get (Registry.find "kmeans-high")) ~nthreads:1
          ~scale:(scale ()) ~mode:(`Sim 1) cfg
      in
      Printf.printf "  %-14s makespan=%d\n" (Config.to_string cfg)
        r.Engine.makespan)
    (Config.baseline :: scope_configs)

(* ------------------------------------------------------------------ *)
(* Fast path A/B: hierarchical capture-check on vs off, per backend      *)

let fastpath () =
  headline
    "Fast path A/B: hierarchical capture check (site tier + summary + MRU \
     + promotion) on vs off, 1 thread, simulator (JSON lines)";
  List.iter
    (fun app ->
      List.iter
        (fun backend ->
          let cfg = Config.runtime backend in
          ignore (ab ~section:"fastpath" app cfg (Config.with_fastpath cfg)))
        Alloc_log.all_backends)
    apps

(* ------------------------------------------------------------------ *)
(* Timestamp validation A/B: global-version-clock validation on vs off   *)

let tvalidate () =
  headline
    "Timestamp validation A/B: global version clock + O(1) snapshot checks \
     + read-only commit fast path, on vs off, 1 thread, simulator (JSON \
     lines)";
  List.iter
    (fun app ->
      List.iter
        (fun cfg ->
          ignore (ab ~section:"tvalidate" app cfg (Config.with_tvalidate cfg)))
        (Config.baseline :: List.map Config.runtime Alloc_log.all_backends))
    apps

(* ------------------------------------------------------------------ *)
(* Contention: CM policy sweep — abort behaviour vs thread count         *)

let contention () =
  headline
    "Contention: CM policy sweep (shared-counter increments, then four \
     apps at 16 threads; simulator, JSON lines)";
  let incs = if !quick then 40 else 200 in
  List.iter
    (fun policy ->
      List.iter
        (fun nthreads ->
          let cfg = Config.with_cm policy Config.baseline in
          let w = Engine.create ~nthreads cfg in
          let arena = Engine.global_arena w in
          let cell = Captured_tmem.Alloc.alloc arena 1 in
          (* A read phase before the contended RMW gives the Karma policy
             work to credit; the scan cells are never written. *)
          let scan = Captured_tmem.Alloc.alloc arena 16 in
          let r =
            Engine.run_sim ~seed:1 w (fun th ->
                for _ = 1 to incs do
                  Txn.atomic th (fun tx ->
                      for k = 0 to 15 do
                        ignore (Txn.read tx (scan + k) : int)
                      done;
                      Txn.write tx cell (Txn.read tx cell + 1);
                      Txn.tx_work tx 50)
                done)
          in
          (* Every policy must still be correct under maximal contention. *)
          assert (
            Captured_tmem.Memory.get (Engine.memory w) cell
            = nthreads * incs);
          json_line ~section:"contention"
            [
              ("policy", str (Cm.policy_name policy));
              ("threads", string_of_int nthreads);
            ]
            r;
          Printf.printf "# %-9s %2d thr  abort/commit %5.2f  makespan %9d  %s\n"
            (Cm.policy_name policy) nthreads
            (Stats.abort_ratio r.Engine.stats)
            r.Engine.makespan
            (show r.Engine.stats
               [ "cm_max_consec_aborts"; "cm_starvation_events" ]))
        [ 2; 4; 8; 16 ])
    Cm.all_policies;
  (* Every policy on real apps, each under its benchmark configuration:
     [run_sim] fails unless the app's own verification passes.  One JSON
     line per seed; the [#] line is the per-policy median over the seeds
     (one seed under --quick), which is what EXPERIMENTS.md records. *)
  let seeds = if !quick then [ 1 ] else List.init 8 (fun i -> i + 1) in
  List.iter
    (fun (name, cfg) ->
      match List.find_opt (fun app -> app.App.name = name) apps with
      | None -> ()
      | Some app ->
          (* [Cm.all_policies] lists the default, [Backoff], first. *)
          let base = ref 0. in
          List.iter
            (fun policy ->
              let cfg = Config.with_cm policy cfg in
              let runs =
                List.map
                  (fun seed ->
                    let r = run_sim app cfg ~nthreads:sim_threads ~seed in
                    json_line ~section:"contention"
                      [
                        ("policy", str (Cm.policy_name policy));
                        ("app", str name);
                        ("config", str (Config.to_string cfg));
                        ("threads", string_of_int sim_threads);
                        ("seed", string_of_int seed);
                      ]
                      r;
                    r)
                  seeds
              in
              let med f = Ustats.median (List.map f runs) in
              let makespan = med (fun r -> float_of_int r.Engine.makespan) in
              if policy = Cm.Backoff then base := makespan;
              Printf.printf
                "# %-14s %-9s %2d thr  %d-seed median: abort/commit \
                 %5.2f  makespan %9.0f (%+5.1f%% vs backoff)  \
                 cm_max_consec_aborts %.0f  backoff_share %.2f\n"
                name (Cm.policy_name policy) sim_threads (List.length seeds)
                (med (fun r -> Stats.abort_ratio r.Engine.stats))
                makespan
                (100. *. (makespan -. !base) /. !base)
                (med (fun r ->
                     float_of_int r.Engine.stats.Stats.cm_max_consec_aborts))
                (med (fun r ->
                     float_of_int r.Engine.stats.Stats.backoff_cycles
                     /. float_of_int (sim_threads * r.Engine.makespan))))
            Cm.all_policies)
    (List.map
       (fun (app, c) -> (app, config c))
       [
         ("vacation-high", "tree+fp+ebr"); ("kmeans-high", "tree+fp");
         ("bayes", "tree"); ("intruder", "tree+scope:hw+tv+lazy+ebr");
       ])

(* ------------------------------------------------------------------ *)
(* Scale: native multicore sweep — real domains, wall clock              *)

let scale_configs =
  List.map config [ "tree"; "tree+fp"; "tree+tv"; "tree+fp+tv" ]

let scale_section () =
  headline
    "Scale: native multicore sweep (real domains, wall clock, median of \
     reps; JSON lines)";
  let ncores = Domain.recommended_domain_count () in
  let domain_counts =
    if !scale_domains <> [] then !scale_domains
    else begin
      (* Powers of two up to the host's core count — but always through 4,
         so the sweep exposes (over)subscription behaviour even on small
         CI boxes. *)
      let top = max 4 ncores in
      let rec up d acc = if d > top then List.rev acc else up (2 * d) (d :: acc) in
      up 1 []
    end
  in
  Printf.printf "# host cores (recommended domains): %d; sweep: %s\n%!" ncores
    (String.concat "," (List.map string_of_int domain_counts));
  if List.exists (fun d -> d > ncores) domain_counts then
    Printf.printf
      "# note: points beyond %d domains oversubscribe this host — expect \
       flat or degraded speedup there\n%!"
      ncores;
  let reps = if !quick then 1 else 3 in
  List.iter
    (fun app ->
      let base_tp = ref 0. in
      let base_ar = ref 0. in
      List.iter
        (fun cfg ->
          let cfg_name = Config.to_string cfg in
          List.iteri
            (fun i n ->
              (* Median over reps; each rep re-prepares the world so runs
                 are independent. *)
              let results =
                List.init reps (fun _ ->
                    App.run app ~nthreads:n ~scale:(scale ()) ~mode:`Native
                      cfg)
              in
              let wall_of (r : Engine.result) = r.Engine.wall in
              let med_wall = Ustats.median (List.map wall_of results) in
              let r =
                (* Report the stats of the median-wall rep. *)
                List.find (fun r -> wall_of r = med_wall) results
              in
              let throughput =
                float_of_int r.Engine.stats.Stats.commits /. max 1e-9 med_wall
              in
              let ar = Stats.abort_ratio r.Engine.stats in
              if i = 0 then begin
                base_tp := throughput;
                base_ar := ar
              end;
              let speedup = throughput /. max 1e-9 !base_tp in
              (* How much contention the extra domains add: abort ratio
                 here minus this config's own 1-domain baseline. *)
              let ar_delta = ar -. !base_ar in
              json_line ~section:"scale"
                [
                  ("app", str app.App.name);
                  ("config", str cfg_name);
                  ("domains", string_of_int n);
                  ("reps", string_of_int reps);
                  ("abort_ratio_delta_vs_1", Printf.sprintf "%.3f" ar_delta);
                  ( "throughput_commits_per_s",
                    Printf.sprintf "%.0f" throughput );
                  ("speedup_vs_1", Printf.sprintf "%.3f" speedup);
                ]
                r;
              Printf.printf
                "# %-14s %-10s %2d dom  abort/commit %5.2f (%+5.2f vs 1 dom)  \
                 wall %8.2f ms  %9.0f commits/s  speedup %5.2fx\n%!"
                app.App.name cfg_name n ar ar_delta (1000. *. med_wall)
                throughput speedup)
            domain_counts)
        scale_configs)
    apps

(* ------------------------------------------------------------------ *)
(* Eager vs lazy versioning A/B: same app, same seed, deferred updates   *)

(* Apps whose transactions initialise freshly-allocated structures, so the
   capture check must prove writes captured and lazy mode must elide their
   redo-buffer traffic (the acceptance floor for the paper's claim). *)
let lazyab_must_skip = [ "genome"; "vacation-low"; "vacation-high"; "yada" ]

let lazyab () =
  headline
    "Eager vs lazy versioning A/B: write-buffer (redo) backend, captured \
     writes bypass the buffer, 1 thread, simulator (JSON lines)";
  let tree = Config.runtime Alloc_log.Tree in
  List.iter
    (fun app ->
      List.iter
        (fun cfg ->
          let lz = ab ~section:"lazyab" app cfg (Config.with_lazy cfg) in
          (* The paper's payoff must actually materialise on the alloc-
             heavy apps once the capture check is in play. *)
          if List.mem app.App.name lazyab_must_skip then
            assert (lz.Engine.stats.Stats.redo_skips > 0))
        [ tree; Config.with_fastpath tree ])
    apps

(* ------------------------------------------------------------------ *)
(* Durable transactions: WAL overhead and recovery cost                 *)

module Wal = Captured_stm.Wal

let wal_section () =
  headline
    "Durable transactions: WAL overhead + captured-write log elision + \
     recovery replay (1 thread, simulator, JSON lines)";
  let configs =
    List.map config [ "tree+scope:hw+wal"; "tree+scope:hw+tv+lazy+wal" ]
  in
  List.iter
    (fun app ->
      List.iter
        (fun cfg ->
          let p = app.App.prepare ~nthreads:1 ~scale:(scale ()) cfg in
          let w = Wal.create ~group:cfg.Config.wal_group () in
          Engine.attach_wal p.App.world w;
          let r = Engine.run_sim ~seed:1 p.App.world p.App.body in
          Wal.sync w;
          (match p.App.verify () with
          | Ok () -> ()
          | Error m -> failwith (app.App.name ^ ": " ^ m));
          let rc =
            match Wal.recover w with
            | Ok rc -> rc
            | Error m -> failwith (app.App.name ^ " recovery: " ^ m)
          in
          (* Recovery must replay every synced commit record. *)
          assert (List.length rc.Wal.r_applied_seqs = Wal.synced_seq w);
          let s = r.Engine.stats in
          let name = Config.to_string cfg in
          let appended = Wal.appended_bytes w in
          let per_commit =
            float_of_int appended /. float_of_int (max 1 s.Stats.commits)
          in
          json_line ~section:"wal"
            [
              ("app", str app.App.name);
              ("config", str name);
              ("log_bytes", string_of_int (Wal.log_bytes w));
              ("appended_bytes", string_of_int appended);
              ("bytes_per_commit", Printf.sprintf "%.1f" per_commit);
              ("recovery_ms", Printf.sprintf "%.3f" rc.Wal.r_wall_ms);
            ]
            r;
          let elided =
            s.Stats.writes_elided_stack + s.Stats.writes_elided_heap
            + s.Stats.writes_elided_static
          in
          Printf.printf
            "# %-14s %-25s %7d B logged (%6.1f B/txn)  log skips %5.1f%% of \
             elided writes  recovery %7.3f ms  %s\n"
            app.App.name name appended per_commit
            (100. *. float_of_int s.Stats.wal_skips
            /. float_of_int (max 1 elided))
            rc.Wal.r_wall_ms
            (show s [ "commits"; "wal_fsyncs"; "wal_skips" ]))
        configs)
    apps

(* ------------------------------------------------------------------ *)
(* Epoch-based reclamation A/B: limbo depth and reclaim-stall overhead  *)

let reclaim_section () =
  headline
    "Reclaim A/B: epoch-based reclamation on vs off — identical outcomes, \
     limbo high-water and stall overhead (simulator, JSON lines)";
  let cfg = Config.runtime Alloc_log.Tree in
  List.iter
    (fun app ->
      (* (a) Single-thread A/B under identical seeds: EBR only defers when
         a freed block returns to the free lists, so commit and user-abort
         counts must match exactly. *)
      ignore (ab ~section:"reclaim" app cfg (Config.with_ebr cfg));
      (* (b) 16-thread leg: limbo depth and epoch traffic under real
         contention (EBR's extra cycles shift interleavings, so only the
         +ebr run's own counters are meaningful here). *)
      let run = run_json ~section:"reclaim" ~nthreads:sim_threads app in
      let off = run cfg in
      let on = run (Config.with_ebr cfg) in
      Printf.printf "# %-14s %d thr: makespan %+5.1f%%  %s\n" app.App.name
        sim_threads
        (change ~base:off.Engine.makespan on.Engine.makespan)
        (show on.Engine.stats
           [
             "tx_frees"; "limbo_blocks"; "limbo_words"; "epoch_advances";
             "reclaim_stalls";
           ]))
    apps

(* ------------------------------------------------------------------ *)

let () =
  Printf.printf
    "captured-memory STM reproduction harness (scale=%s, %d sim threads)\n"
    (if !quick then "test/quick" else "bench")
    sim_threads;
  if wants "fig8" then fig8 ();
  if wants "fig9" then fig9 ();
  if wants "table1" then table1 ();
  if wants "table2" then table2 ();
  if wants "fig10" then fig10 ();
  if wants "fig11a" then fig11a ();
  if wants "fig11b" then fig11b ();
  if wants "micro" then micro ();
  if wants "ablation" then ablation ();
  if wants "fastpath" then fastpath ();
  if wants "tvalidate" then tvalidate ();
  if wants "contention" then contention ();
  if wants "scale" then scale_section ();
  if wants "lazyab" then lazyab ();
  if wants "wal" then wal_section ();
  if wants "reclaim" then reclaim_section ();
  Printf.printf "\ndone.\n"
