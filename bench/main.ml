(* Reproduction harness: regenerates every table and figure of the paper's
   evaluation (Section 4), plus two Bechamel sections (micro, for the
   barrier-cost claims; calibrate, each priced path's native time beside
   its Costs price), an ablation section for the design choices DESIGN.md
   calls out, and one A/B section for the configuration tokens.

   Usage: main.exe [--quick] [--only fig8,table1,ab:fp,...] [--app NAME,...]
   Sections: fig8 fig9 table1 table2 fig10 fig11a fig11b micro calibrate
   ablation contention scale wal, and ab:TOKEN[@BASE] (BASE defaults to
   tree+fp+ebr): every app at 1 and 16 threads, seeds 1-8 (seed 1 under
   --quick), under BASE without TOKEN and BASE with it.  With no --only,
   every section runs, the A/B section as ab:fp, ab:tv, ab:lazy and
   ab:sf. *)

open Captured_apps
module Config = Captured_stm.Config
module Engine = Captured_stm.Engine
module Stats = Captured_stm.Stats
module Txn = Captured_stm.Txn
module Alloc_log = Captured_core.Alloc_log
module Ustats = Captured_util.Stats
module Profile = Captured_util.Profile

(* [ab:TOKEN@BASE]'s two arms, both spelled by [Config.to_string]: BASE
   with TOKEN's fields at their defaults, then that plus [+TOKEN]. *)
let ab_arms spec =
  let token, base =
    match String.index_opt spec '@' with
    | None -> (spec, "tree+fp+ebr")
    | Some i ->
        (String.sub spec 0 i, String.sub spec (i + 1) (String.length spec - i - 1))
  in
  let key part = List.hd (String.split_on_char ':' part) in
  let keys = List.map key (String.split_on_char '+' token) in
  let ( let* ) = Result.bind in
  let* b = Config.of_string base in
  let* off =
    Config.of_string
      (String.concat "+"
         (List.filteri
            (fun i part -> i = 0 || not (List.mem (key part) keys))
            (String.split_on_char '+' (Config.to_string b))))
  in
  let* on = Config.of_string (Config.to_string off ^ "+" ^ token) in
  Ok (token, off, on)

(* ------------------------------------------------------------------ *)
(* CLI                                                                  *)

let quick = ref false
let only : string list ref = ref []
let only_apps : string list ref = ref []

(* [Some spec] for an A/B section [ab:spec]. *)
let ab_spec section =
  if String.starts_with ~prefix:"ab:" section then
    Some (String.sub section 3 (String.length section - 3))
  else None

let scale_domains : int list ref = ref []

(* Argument errors exit 2 before anything runs. *)
let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("error: " ^ m);
      exit 2)
    fmt

let () =
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
        quick := true;
        parse rest
    | "--only" :: spec :: rest ->
        only := String.split_on_char ',' spec;
        parse rest
    | "--app" :: spec :: rest ->
        only_apps := String.split_on_char ',' spec;
        parse rest
    | "--domains" :: spec :: rest ->
        (try
           scale_domains :=
             List.map int_of_string (String.split_on_char ',' spec)
         with Failure _ -> fail "--domains wants e.g. 1,2,4");
        if List.exists (fun d -> d < 1) !scale_domains then
          fail "--domains entries must be >= 1";
        parse rest
    | arg :: _ ->
        fail "unknown argument %s (try: --quick --only --app --domains)" arg
  in
  parse (List.tl (Array.to_list Sys.argv))

let wants section = !only = [] || List.mem section !only
let scale () = if !quick then App.Test else App.Bench
let sim_threads = 16
let seeds = if !quick then [ 1 ] else List.init 8 (fun i -> i + 1)

let apps =
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

let str s = "\"" ^ s ^ "\""

(* Every section's JSON line: the section, the build profile
   ([Profile.profile]: only the default release build inlines across
   modules), the section's own keys, every counter
   ({!Stats.json_fields}), then the abort ratio, the makespan (cycles; ns
   on native runs) and the wall time. *)
let json_line ~section extras (r : Engine.result) =
  let s = r.Engine.stats in
  Printf.printf
    "{%s,%s,\"abort_ratio\":%.3f,\"makespan\":%d,\"wall_ms\":%.3f}\n"
    (String.concat ","
       (List.map
          (fun (k, v) -> Printf.sprintf "\"%s\":%s" k v)
          (("section", str section) :: ("profile", str Profile.profile)
          :: extras)))
    (Stats.json_fields s) (Stats.abort_ratio s) r.Engine.makespan
    (1000. *. r.Engine.wall)

(* One simulator run of [app], printed as a JSON line keyed by [extras],
   then app, config, threads and seed. *)
let run_json ~section extras app cfg ~nthreads ~seed =
  let r = run_sim app cfg ~nthreads ~seed in
  json_line ~section
    (extras
    @ [
        ("app", str app.App.name);
        ("config", str (Config.to_string cfg));
        ("threads", string_of_int nthreads);
        ("seed", string_of_int seed);
      ])
    r;
  r

(* Named counters of one run, ["name value"], for the [#] summary lines. *)
let show (s : Stats.t) names =
  String.concat "  "
    (List.map
       (fun n ->
         let c = List.find (fun c -> c.Stats.name = n) Stats.counters in
         Printf.sprintf "%s %d" n (c.Stats.get s))
       names)

(* ------------------------------------------------------------------ *)
(* Figure 8: breakdown of compiler-inserted barriers                    *)

(* Run under the compiler analysis, so the audit also checks that every
   access at a site the static analysis proved captured really is
   captured (at one thread the breakdown is the same under any
   analysis). *)
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
      let r = run_sim app (config "compiler+audit") ~nthreads:1 ~seed:1 in
      let s = r.Engine.stats in
      if s.Stats.audit_static_violations <> 0 then
        failwith
          (Printf.sprintf
             "fig8: %s: %d accesses at statically captured sites were not \
              captured"
             app.App.name s.Stats.audit_static_violations);
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

(* The header, then one row per app: [row app] is that app's cell per
   configuration, printed with [prec] decimals. *)
let config_table ?(prec = 1) configs row =
  config_header configs;
  List.iter
    (fun app ->
      let cell = row app in
      row_label app.App.name;
      List.iter
        (fun cfg -> Printf.printf " %*.*f" (col_width configs) prec (cell cfg))
        configs;
      print_newline ())
    apps

let table1 () =
  let reps = if !quick then 1 else 3 in
  headline "Table 1: abort-to-commit ratio at %d threads (mean of %d seeds)"
    sim_threads reps;
  config_table ~prec:2 table_configs (fun app cfg ->
      let ratios =
        List.init reps (fun k ->
            let r = run_sim app cfg ~nthreads:sim_threads ~seed:(1 + k) in
            Stats.abort_ratio r.Engine.stats)
      in
      List.fold_left ( +. ) 0. ratios /. float_of_int reps)

(* ------------------------------------------------------------------ *)
(* Table 2: %% relative standard deviation at 16 threads (5 runs)       *)

let table2 () =
  let reps = if !quick then 3 else 5 in
  headline "Table 2: %% relative standard deviation at %d threads (%d runs)"
    sim_threads reps;
  config_table ~prec:2 table_configs (fun app cfg ->
      let samples =
        List.init reps (fun k ->
            let r = run_sim app cfg ~nthreads:sim_threads ~seed:(100 + k) in
            float_of_int r.Engine.makespan)
      in
      Ustats.rel_stddev_percent (Ustats.of_list samples))

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
  config_table scope_configs (fun app ->
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
      fun cfg -> improvement ~base (median cfg))

(* ------------------------------------------------------------------ *)
(* Figure 11a/11b: 16-thread improvement (simulated makespan)           *)

let fig11 ~name configs =
  let reps = if !quick then 1 else 3 in
  headline
    "Figure %s: improvement vs baseline at %d threads (virtual makespan, \
     median of %d seeds, %%)"
    name sim_threads reps;
  config_table configs (fun app ->
      let makespan cfg =
        Ustats.median
          (List.init reps (fun k ->
               float_of_int
                 (run_sim app cfg ~nthreads:sim_threads ~seed:(1 + k))
                   .Engine.makespan))
      in
      let base = makespan Config.baseline in
      fun cfg -> improvement ~base (makespan cfg))

let fig11a () = fig11 ~name:"11a" scope_configs

let fig11b_configs =
  List.map config
    [ "tree+scope:hw"; "array+scope:hw"; "filtering+scope:hw"; "compiler" ]

let fig11b () = fig11 ~name:"11b (heap, write-only runtime checks)" fig11b_configs

(* ------------------------------------------------------------------ *)
(* Bechamel harness, shared by micro and calibrate                      *)

(* One world per flavour; each measured closure runs one transaction of
   [accesses] accesses (plus begin/commit), so figures are directly
   comparable. *)
let accesses = 64

let mk_world cfg =
  let w = Engine.create ~nthreads:1 cfg in
  let cell = Captured_tmem.Alloc.alloc (Engine.global_arena w) accesses in
  let th = Engine.setup_thread w in
  (th, cell)

let empty_txn () =
  let th, _ = mk_world Config.baseline in
  Bechamel.Staged.stage (fun () -> Txn.atomic th (fun _ -> ()))

(* [reads] reads of one block the transaction allocated: captured, so
   elided under a runtime analysis, or under the compiler analysis at a
   [site] it proved captured. *)
let txn_captured_reads ?(reads = accesses)
    ?(site = Captured_core.Site.anonymous_read) cfg =
  let th, _ = mk_world cfg in
  Bechamel.Staged.stage (fun () ->
      Txn.atomic th (fun tx ->
          let b = Txn.alloc tx accesses in
          Txn.write tx b 1;
          for _ = 1 to reads do
            ignore (Txn.read_at ~site tx b : int)
          done;
          Txn.free tx b))

(* Re-reads: [accesses] lines, each read at two line-mates [m] and
   [m + 1] (one read-log entry per line, naming the address read last).
   Then [reread_passes] passes re-read [m + 1] — forwarded from the
   entry — or alternate [m], [m + 1], ... so each re-read names the
   address the entry does not and takes the line-mate path (map probe,
   data load, one orec load against the logged word).  [None]: the first
   pass only, the baseline both are measured against. *)
let reread_passes = 64

(* A one-thread baseline world holding an array block of [accesses]
   lines: its thread and the block, whose [k]th line starts at
   [cell + k * line_words] and has one orec. *)
let lines_world () =
  let line = Captured_stm.Orec.line_words in
  let w = Engine.create ~nthreads:1 Config.baseline in
  let cell =
    Captured_tmem.Alloc.alloc (Engine.global_arena w) (accesses * line)
  in
  (* An array block: line-aligned, so [m] and [m + 1] are line-mates. *)
  assert (Captured_stm.Orec.line_words_at (Engine.orecs w) cell = line);
  (Engine.setup_thread w, cell)

let txn_rereads forwarded =
  let line = Captured_stm.Orec.line_words in
  let th, cell = lines_world () in
  let lines = Array.init accesses (fun k -> cell + (k * line)) in
  Bechamel.Staged.stage (fun () ->
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

(* Bechamel's OLS estimate, in ns per run, of each test (grouped names,
   "group/test"), sorted by name; [None] where the fit failed. *)
let bechamel_ns tests =
  let open Bechamel in
  let open Toolkit in
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
  Hashtbl.fold
    (fun name r acc ->
      let est =
        match Analyze.OLS.estimates r with Some (e :: _) -> Some e | _ -> None
      in
      (name, est) :: acc)
    results []
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks (Bechamel): barrier and capture-check costs         *)

let micro () =
  headline "Micro: barrier & capture-check latencies (Bechamel, ns per txn)";
  let open Bechamel in
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
        Test.make ~name:"empty-txn" (empty_txn ());
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
        Test.make ~name:"baseline-...+4096-rereads(line-mate)"
          (txn_rereads (Some false));
      ]
  in
  let results = bechamel_ns tests in
  List.iter
    (function
      | name, Some est -> Printf.printf "%-42s %12.1f ns\n" name est
      | name, None -> Printf.printf "%-42s %12s\n" name "n/a")
    results;
  (* The simulator prices a forwarded and a line-mate re-read alike, as
     an owned read; set the native per-read costs beside each other. *)
  let est name = Option.join (List.assoc_opt ("stm/" ^ name) results) in
  match
    ( est "baseline-128-line-mate-reads",
      est "baseline-...+4096-rereads(forwarded)",
      est "baseline-...+4096-rereads(line-mate)" )
  with
  | Some base, Some fwd, Some mate ->
      let per t = (t -. base) /. float_of_int (reread_passes * accesses) in
      Printf.printf
        "# re-read per read: forwarded %.1f ns, line-mate %.1f ns (both \
         simulated at read_owned = %d)\n"
        (per fwd) (per mate) Captured_stm.Costs.read_owned
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Calibrate: each priced path's native time beside its Costs price     *)

(* One row per path the cost model prices: its native ns per operation,
   that time scaled so a fresh read reads its price (the read barrier
   plus its entry's share of commit validation, 32), and the cycles the
   simulator charges for the same work.  A barrier row is
   the difference between two transactions that differ only in the
   measured operations, divided by their number, so begin, commit and
   the loop cancel; a probe or spin row times a loop of [accesses] bare
   calls.  The model prices an elided read as its capture check plus
   [direct_access]; the check rows price the first part, and the elided
   read the order check uses is the compiler's static elision, which runs
   no check.  The read the runtime analysis elides, check included, is
   reported beside it.  The section fails (exit 1) unless the native
   times keep the model's order: elided < forwarded < fresh read,
   elided < line-mate read < fresh read, summary reject < backend
   probe.  It is a calibration aid, not a gate: shared hosts move its
   figures, so CI does not run it. *)
let calibrate () =
  let module Costs = Captured_stm.Costs in
  let fresh_cycles =
    Costs.read_barrier + Costs.commit_per_read + Costs.validate_per_read
  in
  headline
    "Calibrate: native ns per priced path vs Costs (Bechamel; scaled so a \
     fresh read = %d)"
    fresh_cycles;
  let open Bechamel in
  let module Orec = Captured_stm.Orec in
  let module Site = Captured_core.Site in
  (* Read-for-write on [accesses] lines of an array block, one orec
     each; the write that would follow is left out, so a row is one
     acquisition plus its release at commit. *)
  let txn_rfw =
    let line = Orec.line_words in
    let th, cell = lines_world () in
    Staged.stage (fun () ->
        Txn.atomic th (fun tx ->
            for k = 0 to accesses - 1 do
              ignore
                (Txn.read_for_write_at ~site:Site.anonymous_read tx
                   (cell + (k * line))
                  : int)
            done))
  in
  (* A fast-path tree log of [blocks] 32-word blocks 64 words apart.
     Probes below its envelope are summary rejects; probes into the gaps
     pass the summary, miss the MRU block and take the tree (a miss
     leaves the MRU entry as it was). *)
  let blocks = 8 and base = 1 lsl 20 in
  let log = Alloc_log.create ~fastpath:true Alloc_log.Tree in
  for k = 0 to blocks - 1 do
    ignore (Alloc_log.add log ~lo:(base + (64 * k)) ~hi:(base + (64 * k) + 32)
             : Alloc_log.added)
  done;
  let probe_at first k = first + (64 * (k mod (blocks - 1))) in
  let backend_path =
    Printf.sprintf "capture backend probe (tree, %d blocks)" blocks
  in
  let reject_at = probe_at 0 and gap_at = probe_at (base + 40) in
  assert (Alloc_log.probe log ~lo:(reject_at 1) ~hi:(reject_at 1 + 1)
          = Alloc_log.Summary_reject);
  assert (Alloc_log.probe log ~lo:(gap_at 1) ~hi:(gap_at 1 + 1)
          = Alloc_log.Backend_miss);
  let probes at =
    Staged.stage (fun () ->
        for k = 0 to accesses - 1 do
          ignore
            (Sys.opaque_identity (Alloc_log.probe log ~lo:(at k) ~hi:(at k + 1)))
        done)
  in
  (* A native lock-wait spin: load the orec, find it locked (here by a
     thread that never comes), relax. *)
  let lock_spins =
    let w = Engine.create ~nthreads:1 Config.baseline in
    let orecs = Engine.orecs w in
    let locked = Orec.try_lock orecs 0 ~owner:1 ~expected:(Orec.get orecs 0) in
    assert locked;
    let platform = Captured_sim.Platform.native ~tid:0 in
    Staged.stage (fun () ->
        for _ = 1 to accesses do
          if Orec.is_locked (Orec.get orecs 0) then platform.yield ()
        done)
  in
  (* The first read of each of [accesses] lines of an array block: one
     fresh read-log entry each, validated at commit. *)
  let txn_fresh_reads =
    let line = Orec.line_words in
    let th, cell = lines_world () in
    Staged.stage (fun () ->
        Txn.atomic th (fun tx ->
            for k = 0 to accesses - 1 do
              ignore (Txn.read tx (cell + (k * line)) : int)
            done))
  in
  let static_site = Site.declare ~write:false "calibrate.captured" in
  Site.set_captured static_site;
  let cfg_fp = config "tree+fp" and cfg_compiler = config "compiler" in
  let rereads = reread_passes * accesses in
  let tests =
    Test.make_grouped ~name:"calibrate"
      [
        Test.make ~name:"reread-base" (txn_rereads None);
        Test.make ~name:"reread-forwarded" (txn_rereads (Some true));
        Test.make ~name:"reread-line-mate" (txn_rereads (Some false));
        Test.make ~name:"static-base"
          (txn_captured_reads ~reads:0 ~site:static_site cfg_compiler);
        Test.make ~name:"static-reads"
          (txn_captured_reads ~reads:rereads ~site:static_site cfg_compiler);
        Test.make ~name:"runtime-base" (txn_captured_reads ~reads:0 cfg_fp);
        Test.make ~name:"runtime-reads"
          (txn_captured_reads ~reads:rereads cfg_fp);
        Test.make ~name:"fresh-reads" txn_fresh_reads;
        Test.make ~name:"empty-txn" (empty_txn ());
        Test.make ~name:"rfw" txn_rfw;
        Test.make ~name:"summary-reject" (probes reject_at);
        Test.make ~name:"backend-probe" (probes gap_at);
        Test.make ~name:"lock-spin" lock_spins;
      ]
  in
  (* Each row's ns per operation, from one round's estimates [est]. *)
  let per ?base name n est =
    match (est name, Option.fold ~none:(Some 0.) ~some:est base) with
    | Some t, Some b -> Some ((t -. b) /. float_of_int n)
    | _ -> None
  in
  (* (path, measurement, simulator cycles, how the model prices it) *)
  let specs =
    [
      ( "read fresh",
        per ~base:"empty-txn" "fresh-reads" accesses,
        fresh_cycles,
        "read_barrier + commit_per_read + validate_per_read" );
      ( "read line-mate",
        per ~base:"reread-base" "reread-line-mate" rereads,
        Costs.read_owned,
        "read_owned" );
      ( "read forwarded",
        per ~base:"reread-base" "reread-forwarded" rereads,
        Costs.read_owned,
        "read_owned" );
      ( "read elided (compiler, static)",
        per ~base:"static-base" "static-reads" rereads,
        Costs.direct_access,
        "direct_access" );
      ( "read elided (tree+fp, check included)",
        per ~base:"runtime-base" "runtime-reads" rereads,
        Costs.site_check + Costs.stack_check + Costs.capture_summary_check
        + Costs.direct_access,
        "site_check + stack_check + capture_summary_check + direct_access" );
      ( "read-for-write",
        per ~base:"empty-txn" "rfw" accesses,
        Costs.write_barrier_acquire + Costs.commit_per_orec,
        "write_barrier_acquire + commit_per_orec" );
      ( "capture summary reject",
        per "summary-reject" accesses,
        Costs.capture_summary_check,
        "capture_summary_check" );
      ( backend_path,
        per "backend-probe" accesses,
        Costs.capture_summary_check + Costs.capture_mru_check
        + Alloc_log.search_cost log,
        "capture_summary_check + capture_mru_check + Alloc_log.search_cost" );
      ("lock-spin step", per "lock-spin" accesses, Costs.lock_spin, "lock_spin");
    ]
  in
  (* A shared host drifts over the seconds one round takes, so the whole
     set is measured [rounds] times and each row reports its median; a
     row and its base are neighbours in the test list, so each round's
     difference is taken close in time. *)
  let rounds = if !quick then 1 else 5 in
  let samples =
    List.init rounds (fun _ ->
        let results = bechamel_ns tests in
        let est name =
          Option.join (List.assoc_opt ("calibrate/" ^ name) results)
        in
        List.map (fun (_, measure, _, _) -> measure est) specs)
  in
  let rows =
    List.mapi
      (fun i (path, _, cycles, model) ->
        let values = List.filter_map (fun round -> List.nth round i) samples in
        let t =
          if List.length values = rounds then Some (Ustats.median values)
          else None
        in
        (path, t, cycles, model))
      specs
  in
  let ns path =
    let _, t, _, _ = List.find (fun (p, _, _, _) -> p = path) rows in
    t
  in
  let fresh = ns "read fresh" in
  Printf.printf "%-40s %9s %9s %7s  %s\n" "path" "ns/op" "scaled" "cycles"
    "Costs";
  List.iter
    (fun (path, t, cycles, model) ->
      let scaled =
        match (t, fresh) with
        | Some t, Some f when f > 0. ->
            Some (t *. float_of_int fresh_cycles /. f)
        | _ -> None
      in
      let cell = Option.fold ~none:"n/a" ~some:(Printf.sprintf "%.1f") in
      Printf.printf "%-40s %9s %9s %7d  %s\n" path (cell t) (cell scaled)
        cycles model)
    rows;
  (* The order the model relies on, strictly increasing. *)
  let rec increasing = function
    | Some a :: (Some b :: _ as rest) -> a < b && increasing rest
    | [ Some _ ] -> true
    | _ -> false
  in
  let broken =
    List.filter
      (fun paths -> not (increasing (List.map ns paths)))
      [
        [ "read elided (compiler, static)"; "read forwarded"; "read fresh" ];
        [ "read elided (compiler, static)"; "read line-mate"; "read fresh" ];
        [ "capture summary reject"; backend_path ];
      ]
  in
  List.iter
    (fun paths ->
      Printf.eprintf "calibrate: native order broken: %s\n"
        (String.concat " < " paths))
    broken;
  if broken <> [] then exit 1

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
(* Contention: abort behaviour of the retry backoff vs thread count      *)

(* Share of all thread time spent in retry backoff. *)
let backoff_share ~nthreads (r : Engine.result) =
  float_of_int r.Engine.stats.Stats.backoff_cycles
  /. float_of_int (nthreads * r.Engine.makespan)

let contention () =
  headline
    "Contention: retry backoff (shared-counter increments, then four apps \
     at 16 threads; simulator, JSON lines)";
  let incs = if !quick then 40 else 200 in
  List.iter
    (fun nthreads ->
      let w = Engine.create ~nthreads Config.baseline in
      let arena = Engine.global_arena w in
      let cell = Captured_tmem.Alloc.alloc arena 1 in
      (* A read phase before the contended RMW; the scan cells are never
         written. *)
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
      (* Still correct under maximal contention. *)
      assert (
        Captured_tmem.Memory.get (Engine.memory w) cell = nthreads * incs);
      json_line ~section:"contention" [ ("threads", string_of_int nthreads) ] r;
      Printf.printf
        "# %2d thr  abort/commit %5.2f  makespan %9d  %s  backoff_share %.2f\n"
        nthreads
        (Stats.abort_ratio r.Engine.stats)
        r.Engine.makespan
        (show r.Engine.stats [ "cm_max_consec_aborts"; "spin_aborts" ])
        (backoff_share ~nthreads r))
    [ 2; 4; 8; 16 ];
  (* Real apps, each under its benchmark configuration: [run_sim] fails
     unless the app's own verification passes.  One JSON line per seed;
     the [#] line is the median over the seeds (one seed under --quick),
     which is what EXPERIMENTS.md records. *)
  List.iter
    (fun (name, cfg) ->
      match List.find_opt (fun app -> app.App.name = name) apps with
      | None -> ()
      | Some app ->
          let runs =
            List.map
              (fun seed ->
                run_json ~section:"contention" [] app cfg ~nthreads:sim_threads
                  ~seed)
              seeds
          in
          let med f = Ustats.median (List.map f runs) in
          Printf.printf
            "# %-14s %2d thr  %d-seed median: abort/commit %5.2f  makespan \
             %9.0f  cm_max_consec_aborts %.0f  backoff_share %.2f\n"
            name sim_threads (List.length seeds)
            (med (fun r -> Stats.abort_ratio r.Engine.stats))
            (med (fun r -> float_of_int r.Engine.makespan))
            (med (fun r ->
                 float_of_int r.Engine.stats.Stats.cm_max_consec_aborts))
            (med (backoff_share ~nthreads:sim_threads)))
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
          (* The transactions' own records ([wal_bytes]: commit records,
             and raw stores, which no app makes); everything else
             appended is the baseline checkpoint [attach_wal] wrote. *)
          let logged = s.Stats.wal_bytes in
          let checkpoint = appended - logged in
          let per_commit =
            float_of_int logged /. float_of_int (max 1 s.Stats.commits)
          in
          json_line ~section:"wal"
            [
              ("app", str app.App.name);
              ("config", str name);
              ("log_bytes", string_of_int (Wal.log_bytes w));
              ("appended_bytes", string_of_int appended);
              ("checkpoint_bytes", string_of_int checkpoint);
              ("bytes_per_commit", Printf.sprintf "%.1f" per_commit);
              ("recovery_ms", Printf.sprintf "%.3f" rc.Wal.r_wall_ms);
            ]
            r;
          let elided =
            s.Stats.writes_elided_stack + s.Stats.writes_elided_heap
            + s.Stats.writes_elided_static
          in
          Printf.printf
            "# %-14s %-25s %7d B logged (%6.1f B/txn)  checkpoint %7d B  log \
             skips %5.1f%% of elided writes  recovery %7.3f ms  %s\n"
            app.App.name name logged per_commit checkpoint
            (100. *. float_of_int s.Stats.wal_skips
            /. float_of_int (max 1 elided))
            rc.Wal.r_wall_ms
            (show s [ "commits"; "wal_fsyncs"; "wal_skips" ]))
        configs)
    apps

(* ------------------------------------------------------------------ *)
(* A/B: one configuration token off vs on, on every app                 *)

(* bayes's commit count at 16 threads depends on the schedule: it differs
   between the arms on every seed for fp, tv, lazy, sf and ebr, and no
   other app's does.  Its cells compare cycles per commit instead of
   makespan and skip the equal-outcome check. *)
let per_commit app nthreads = app.App.name = "bayes" && nthreads = sim_threads

(* The A/B purpose checks, as data: what each asserts, the cells it
   covers (arms, app, threads), and its test on one seed's two runs. *)
let ab_checks =
  [
    (* A token may move costs, never outcomes. *)
    ( "equal commits and user aborts",
      (fun _ _ app nthreads -> not (per_commit app nthreads)),
      fun (a : Stats.t) (b : Stats.t) ->
        a.commits = b.commits && a.user_aborts = b.user_aborts );
    (* Apps whose transactions initialise freshly allocated structures:
       once a runtime capture check proves those writes captured, lazy
       versioning must keep them out of the redo buffer. *)
    ( "redo_skips > 0",
      (fun (off : Config.t) (on : Config.t) app _ ->
        on.lazy_versioning && (not off.lazy_versioning)
        && (match on.analysis with Runtime _ -> true | _ -> false)
        && List.mem app.App.name
             [ "genome"; "vacation-low"; "vacation-high"; "yada" ]),
      fun _ b -> b.redo_skips > 0 );
  ]

(* Every counter whose total differs between the arms, ["name a->b"]. *)
let moved (a : Stats.t) (b : Stats.t) =
  String.concat "  "
    (List.filter_map
       (fun c ->
         let x = c.Stats.get a and y = c.Stats.get b in
         if x = y then None
         else Some (Printf.sprintf "%s %d->%d" c.Stats.name x y))
       Stats.counters)

(* Both arms per seed, one JSON line each; then one [#] line per (app,
   threads) cell: the median change over the seeds (negative = arm B is
   faster), its range, the seeds arm B wins, both arms' abort/commit and
   every counter whose seed total moved. *)
let ab_section spec =
  let token, off, on = Result.get_ok (ab_arms spec) in
  headline "A/B %s: %s vs %s (%d seeds; simulator, JSON lines)" spec
    (Config.to_string off) (Config.to_string on) (List.length seeds);
  List.iter
    (fun app ->
      List.iter
        (fun nthreads ->
          let run = run_json ~section:"ab" [ ("token", str token) ] app ~nthreads in
          let runs =
            List.map
              (fun seed ->
                let a = run off ~seed and b = run on ~seed in
                List.iter
                  (fun (what, applies, holds) ->
                    if applies off on app nthreads
                       && not (holds a.Engine.stats b.Engine.stats)
                    then
                      failwith
                        (Printf.sprintf
                           "ab:%s: %s fails on %s, %s vs %s, %d threads, seed %d"
                           spec what app.App.name (Config.to_string off)
                           (Config.to_string on) nthreads seed))
                  ab_checks;
                (a, b))
              seeds
          in
          let cost (r : Engine.result) =
            float_of_int r.makespan
            /. float_of_int
                 (if per_commit app nthreads then max 1 r.stats.commits else 1)
          in
          let changes =
            List.map (fun (a, b) -> -.improvement ~base:(cost a) (cost b)) runs
          in
          let total arm = Stats.sum (List.map (fun r -> (arm r).Engine.stats) runs) in
          let sa = total fst and sb = total snd in
          Printf.printf
            "# ab:%s %-14s %2d thr  %s %+5.1f%% (%+.1f..%+.1f)  wins %d/%d  \
             abort/commit %.2f -> %.2f  %s\n%!"
            spec app.App.name nthreads
            (if per_commit app nthreads then "cycles/commit" else "makespan")
            (Ustats.median changes)
            (List.fold_left min infinity changes)
            (List.fold_left max neg_infinity changes)
            (List.length (List.filter (fun c -> c < 0.) changes))
            (List.length seeds)
            (Stats.abort_ratio sa) (Stats.abort_ratio sb) (moved sa sb))
        [ 1; sim_threads ])
    apps

(* ------------------------------------------------------------------ *)

(* Bechamel settles the heap before every sample with [Gc.compact], some
   thousands of times per run.  Under OCaml 5.1 each explicit collection
   banks major-GC work credit that the allocation-driven slices then pay
   back by doing no work, so for the rest of the process no major cycle
   completes and every later simulator run grows the heap for good
   (nothing is retained: one [Gc.full_major] frees it all).  So each
   Bechamel section ([micro], [calibrate]) runs in a child process of its
   own, unless it is all this process runs; the child's banner and closing
   line are dropped. *)
let isolated name run () =
  if !only = [ name ] then run ()
  else begin
    flush stdout;
    let child =
      Unix.open_process_args_in Sys.executable_name
        (Array.of_list
           ((Sys.executable_name :: (if !quick then [ "--quick" ] else []))
           @ [ "--only"; name ]))
    in
    (try
       while true do
         let line = input_line child in
         if
           not
             (String.starts_with ~prefix:"captured-memory STM" line
             || line = "done.")
         then print_endline line
       done
     with End_of_file -> ());
    match Unix.close_process_in child with
    | Unix.WEXITED 0 -> ()
    | _ -> fail "%s: the child process failed" name
  end

(* Every section in run order; the A/B sections run after them. *)
let sections =
  [
    ("fig8", fig8);
    ("fig9", fig9);
    ("table1", table1);
    ("table2", table2);
    ("fig10", fig10);
    ("fig11a", fig11a);
    ("fig11b", fig11b);
    ("micro", isolated "micro" micro);
    ("calibrate", isolated "calibrate" calibrate);
    ("ablation", ablation);
    ("contention", contention);
    ("scale", scale_section);
    ("wal", wal_section);
  ]

let () =
  (* Fail fast on typos in --only and --app: a silently-ignored name
     would report "done." having measured nothing. *)
  List.iter
    (fun section ->
      match Option.map ab_arms (ab_spec section) with
      | Some (Error m) -> fail "%s: %s" section m
      | Some (Ok _) -> ()
      | None when List.mem_assoc section sections -> ()
      | None ->
          fail "unknown section %s (try: %s ab:TOKEN[@BASE])" section
            (String.concat " " (List.map fst sections)))
    !only;
  List.iter
    (fun name ->
      if not (List.exists (fun app -> app.App.name = name) Registry.all) then
        fail "unknown app %s (try: %s)" name
          (String.concat " " (Registry.names ())))
    !only_apps;
  Printf.printf
    "captured-memory STM reproduction harness (scale=%s, %d sim threads, \
     %s build)\n"
    (if !quick then "test/quick" else "bench")
    sim_threads Profile.profile;
  List.iter (fun (name, run) -> if wants name then run ()) sections;
  List.iter ab_section
    (if !only = [] then [ "fp"; "tv"; "lazy"; "sf" ]
     else List.filter_map ab_spec !only);
  Printf.printf "\ndone.\n"
