(* Reproduction harness: regenerates every table and figure of the paper's
   evaluation (Section 4), plus a Bechamel section (calibrate, each priced
   path's native time beside its Costs price), an ablation section for the
   design choices DESIGN.md calls out, a pins section of single runs that
   guard the simulator's schedule, and one A/B section for the
   configuration tokens.  The simulated sections, fig8 to pins, print the
   same bytes on every run; bench/dune diffs them against two recorded
   copies, one per scale, that `dune promote` re-records.

   Usage: main.exe [--quick] [--only fig8,table1,ab:fp,...] [--app NAME,...]
   Sections: fig8 fig9 table1 table2 fig10 fig11a fig11b ablation pins
   contention scale wal calibrate, and ab:TOKEN[@BASE] (BASE defaults to
   tree+fp+ebr): every app at 1 and 16 threads, seeds 1-8 (seed 1 under
   --quick), under BASE without TOKEN and BASE with it.  With no --only,
   every section runs, the A/B section as ab:fp, ab:tv, ab:lazy and
   ab:sf, and calibrate last. *)

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
  (* The capture columns count capture elisions only; the last column is
     the share of reads loaded directly at init-only sites, which every
     configuration elides alike (shown for tree). *)
  Printf.printf "%-14s | %s | %s\n" ""
    (String.concat " | "
       (List.map
          (fun c -> Printf.sprintf "%9s r%% w%%" (Config.to_string c))
          fig9_configs))
    "init r%";
  List.iter
    (fun app ->
      row_label app.App.name;
      let init = ref 0. in
      List.iter
        (fun cfg ->
          let r = run_sim app cfg ~nthreads:1 ~seed:1 in
          let s = r.Engine.stats in
          let pct n d = 100. *. float_of_int n /. float_of_int (max 1 d) in
          let rp =
            pct (Stats.reads_elided s - s.Stats.reads_elided_init) s.Stats.reads
          in
          let wp = pct (Stats.writes_elided s) s.Stats.writes in
          if cfg == List.hd fig9_configs then
            init := pct s.Stats.reads_elided_init s.Stats.reads;
          Printf.printf " |     %5.1f %5.1f" rp wp)
        fig9_configs;
      Printf.printf " |   %5.1f\n" !init)
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
(* Figures 10, 11a and 11b: improvement (simulated makespan)            *)

let fig11 ~name ~threads configs =
  let reps = if !quick then 1 else 3 in
  headline
    "Figure %s: improvement vs baseline at %d thread%s (virtual makespan, \
     median of %d seeds, %%)"
    name threads
    (if threads = 1 then "" else "s")
    reps;
  config_table configs (fun app ->
      let makespan cfg =
        Ustats.median
          (List.init reps (fun k ->
               float_of_int
                 (run_sim app cfg ~nthreads:threads ~seed:(1 + k))
                   .Engine.makespan))
      in
      let base = makespan Config.baseline in
      fun cfg -> improvement ~base (makespan cfg))

let scope_configs =
  List.map config [ "tree"; "tree+scope:shw"; "tree+scope:hw"; "compiler" ]

(* One thread has no conflicts, so Figure 10 measures what barriers and
   capture checks cost, priced by the simulator's cost model. *)
let fig10 () = fig11 ~name:"10" ~threads:1 scope_configs
let fig11a () = fig11 ~name:"11a" ~threads:sim_threads scope_configs

let fig11b_configs =
  List.map config
    [ "tree+scope:hw"; "array+scope:hw"; "filtering+scope:hw"; "compiler" ]

let fig11b () =
  fig11 ~name:"11b (heap, write-only runtime checks)" ~threads:sim_threads
    fig11b_configs

(* ------------------------------------------------------------------ *)
(* Calibrate: each priced path's native time beside its Costs price     *)

(* Each measured closure runs one transaction of [accesses] operations
   (plus begin/commit), or a loop of [accesses] bare calls. *)
let accesses = 64

let line = Captured_stm.Orec.line_words

(* A one-thread world under [cfg] holding an array block of [accesses]
   lines, one orec each: its thread and each line's first word. *)
let lines_world cfg =
  let w = Engine.create ~nthreads:1 cfg in
  let cell =
    Captured_tmem.Alloc.alloc (Engine.global_arena w) (accesses * line)
  in
  (* An array block: line-aligned, so [m] and [m + 1] are line-mates. *)
  assert (Captured_stm.Orec.line_words_at (Engine.orecs w) cell = line);
  (Engine.setup_thread w, Array.init accesses (fun k -> cell + (k * line)))

(* One transaction calling [op tx m] on each line's first word [m]. *)
let txn_lines ?(cfg = Config.baseline) op =
  let th, lines = lines_world cfg in
  Bechamel.Staged.stage (fun () ->
      Txn.atomic th (fun tx -> Array.iter (op tx) lines))

(* [n] calls of [op tx b] on a block [b] the transaction allocated:
   captured, so elided under a runtime analysis, or under the compiler
   analysis at a site it proved captured.  [n] = 0 is their base. *)
let txn_captured cfg n op =
  let th = Engine.setup_thread (Engine.create ~nthreads:1 cfg) in
  Bechamel.Staged.stage (fun () ->
      Txn.atomic th (fun tx ->
          let b = Txn.alloc tx accesses in
          Txn.write tx b 1;
          for _ = 1 to n do
            op tx b
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

let txn_rereads forwarded =
  let th, lines = lines_world Config.baseline in
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

(* One row per path the cost model prices: its native ns per operation,
   that time scaled so a fresh read reads its price (the read barrier
   plus its entry's share of commit validation, 32), and the cycles the
   simulator charges for the same work.  A barrier row is
   the difference between two transactions that differ only in the
   measured operations, divided by their number, so begin, commit and
   the loop cancel; a raw-read, probe or spin row times a loop of
   [accesses] bare calls.  The model prices an elided read as its
   capture check plus [direct_access]; the check rows price the first
   part, and the elided read the order check uses is the compiler's
   static elision, which runs no check.  The accesses the runtime
   analysis elides, check included, are reported beside it, per backend
   (and for the tree under +fp), with the fresh read each backend's
   failed check leaves, and so is a published word read at an init-only
   site, which takes no check and no read-log entry.  The section fails
   (exit 1) unless the native times keep the model's order: elided < forwarded < fresh read,
   elided < line-mate read < fresh read, summary reject < backend
   probe.  It is a calibration aid, not a gate: shared hosts move its
   figures, so CI does not run it. *)
let calibrate () =
  let module Costs = Captured_stm.Costs in
  let module Orec = Captured_stm.Orec in
  let module Site = Captured_core.Site in
  let fresh_cycles =
    Costs.read_barrier + Costs.commit_per_read + Costs.validate_per_read
  in
  headline
    "Calibrate: native ns per priced path vs Costs (Bechamel; scaled so a \
     fresh read = %d)"
    fresh_cycles;
  let open Bechamel in
  let read tx m = ignore (Txn.read tx m : int) in
  let write tx m = Txn.write tx m 1 in
  let no_op _ _ = () in
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
    let platform = Captured_sim.Platform.native in
    Staged.stage (fun () ->
        for _ = 1 to accesses do
          if Orec.is_locked (Orec.get orecs 0) then platform.yield ()
        done)
  in
  (* Loads outside any transaction. *)
  let raw_reads =
    let th, lines = lines_world Config.baseline in
    Staged.stage (fun () ->
        Array.iter (fun m -> ignore (Txn.raw_read th m : int)) lines)
  in
  let static_site = Site.declare ~write:false "calibrate.captured" in
  Site.set_captured static_site;
  let static_read tx b = ignore (Txn.read_at ~site:static_site tx b : int) in
  let init_site =
    Site.declare ~init_only:true ~write:false "calibrate.init_only"
  in
  let cfg_fp = config "tree+fp" and cfg_compiler = config "compiler" in
  let rereads = reread_passes * accesses in
  (* Each row's ns per operation, from one round's estimates [est]. *)
  let per ?base name n est =
    match (est name, Option.fold ~none:(Some 0.) ~some:est base) with
    | Some t, Some b -> Some ((t -. b) /. float_of_int n)
    | _ -> None
  in
  let checked = "stack_check + Alloc_log.search_cost" in
  (* Each runtime backend without +fp: its tests, and its rows for an
     access its capture check elides (a stack check, then a probe of a
     one-block log that hits), read and written, and for a fresh read
     after the same checks miss an empty log. *)
  let backend_tests, backend_rows =
    List.split
      (List.map
         (fun b ->
           let cfg = Config.runtime b in
           let name = Config.to_string cfg in
           let one_block = Alloc_log.create b in
           ignore (Alloc_log.add one_block ~lo:base ~hi:(base + accesses)
                    : Alloc_log.added);
           let hit =
             Costs.stack_check + Alloc_log.search_cost one_block
             + Costs.direct_access
           in
           let t s = name ^ "-" ^ s and row what = what ^ " (" ^ name ^ ")" in
           ( [
               Test.make ~name:(t "base") (txn_captured cfg 0 no_op);
               Test.make ~name:(t "captured-reads")
                 (txn_captured cfg rereads read);
               Test.make ~name:(t "captured-writes")
                 (txn_captured cfg rereads write);
               Test.make ~name:(t "lines") (txn_lines ~cfg no_op);
               Test.make ~name:(t "failed-check-reads") (txn_lines ~cfg read);
             ],
             [
               ( row "read captured",
                 per ~base:(t "base") (t "captured-reads") rereads,
                 hit,
                 checked ^ " + direct_access" );
               ( row "write captured",
                 per ~base:(t "base") (t "captured-writes") rereads,
                 hit,
                 checked ^ " + direct_access" );
               ( row "read after failed check",
                 per ~base:(t "lines") (t "failed-check-reads") accesses,
                 Costs.stack_check
                 + Alloc_log.search_cost (Alloc_log.create b)
                 + fresh_cycles,
                 checked ^ " + read fresh" );
             ] ))
         Alloc_log.[ Tree; Array; Filter ])
  in
  let tests =
    Test.make_grouped ~name:"calibrate"
      ([
         Test.make ~name:"raw-reads" raw_reads;
         Test.make ~name:"lines" (txn_lines no_op);
         Test.make ~name:"fresh-reads" (txn_lines read);
         Test.make ~name:"rfw"
           (txn_lines (fun tx m ->
                ignore (Txn.read_for_write_at ~site:Site.anonymous_read tx m
                         : int)));
         Test.make ~name:"fresh-writes" (txn_lines write);
         Test.make ~name:"owned-writes"
           (txn_lines (fun tx m ->
                for d = 0 to line - 1 do
                  write tx (m + d)
                done));
         Test.make ~name:"reread-base" (txn_rereads None);
         Test.make ~name:"reread-forwarded" (txn_rereads (Some true));
         Test.make ~name:"reread-line-mate" (txn_rereads (Some false));
         Test.make ~name:"init-reads"
           (txn_lines (fun tx m ->
                ignore (Txn.read_at ~site:init_site tx m : int)));
         Test.make ~name:"static-base" (txn_captured cfg_compiler 0 no_op);
         Test.make ~name:"static-reads"
           (txn_captured cfg_compiler rereads static_read);
         Test.make ~name:"runtime-base" (txn_captured cfg_fp 0 no_op);
         Test.make ~name:"runtime-reads" (txn_captured cfg_fp rereads read);
       ]
      @ List.concat backend_tests
      @ [
          Test.make ~name:"summary-reject" (probes reject_at);
          Test.make ~name:"backend-probe" (probes gap_at);
          Test.make ~name:"lock-spin" lock_spins;
        ])
  in
  (* (path, measurement, simulator cycles, how the model prices it) *)
  let specs =
    [
      ( "read raw (Txn.raw_read)",
        per "raw-reads" accesses,
        Costs.direct_access,
        "direct_access" );
      ( "read fresh",
        per ~base:"lines" "fresh-reads" accesses,
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
      ( "read init-only (Site ~init_only)",
        per ~base:"lines" "init-reads" accesses,
        Costs.direct_access,
        "direct_access" );
      ( "read elided (tree+fp, check included)",
        per ~base:"runtime-base" "runtime-reads" rereads,
        Costs.site_check + Costs.stack_check + Costs.capture_summary_check
        + Costs.direct_access,
        "site_check + stack_check + capture_summary_check + direct_access" );
      ( "read-for-write",
        per ~base:"lines" "rfw" accesses,
        Costs.write_barrier_acquire + Costs.commit_per_orec,
        "write_barrier_acquire + commit_per_orec" );
      ( "write fresh",
        per ~base:"lines" "fresh-writes" accesses,
        Costs.write_barrier_acquire + Costs.undo_log_entry
        + Costs.commit_per_orec,
        "write_barrier_acquire + undo_log_entry + commit_per_orec" );
      ( "write owned (line-mate)",
        per ~base:"fresh-writes" "owned-writes" (accesses * (line - 1)),
        Costs.write_barrier_owned + Costs.undo_log_entry,
        "write_barrier_owned + undo_log_entry" );
    ]
    @ List.concat backend_rows
    @ [
        ( "capture summary reject",
          per "summary-reject" accesses,
          Costs.capture_summary_check,
          "capture_summary_check" );
        ( backend_path,
          per "backend-probe" accesses,
          Costs.capture_summary_check + Costs.capture_mru_check
          + Alloc_log.search_cost log,
          "capture_summary_check + capture_mru_check + Alloc_log.search_cost"
        );
        ( "lock-spin step",
          per "lock-spin" accesses,
          Costs.lock_spin,
          "lock_spin" );
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
  (* A reader that owns no orec spins on a lock while the wait costs less
     than re-reading its log: [read_barrier / lock_spin] spins per logged
     read in the model ([Lock_wait.wait_budget]). *)
  (match (ns "read fresh", ns "lock-spin step") with
  | Some r, Some s when s > 0. ->
      Printf.printf
        "# lock-wait break-even: a fresh read costs %.1f lock-spin steps \
         natively (%.1f / %.1f ns); Costs: read_barrier / lock_spin = %d\n"
        (r /. s) r s
        (Costs.read_barrier / Costs.lock_spin)
  | _ -> ());
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
    [ 8; 10; 12; 14; 17; 18 ]

(* ------------------------------------------------------------------ *)
(* Pins: single runs that guard the simulator's schedule                *)

(* App, config spelling, threads, seed, and what the cell guards.  Any
   change to a scheduling decision moves commits, aborts or makespan of
   some cell; the recorded copies (bench/dune) turn that into a diff. *)
let pin_cells =
  [
    ("vacation-low", "baseline", 4, 3, "eager undo log, no capture checks");
    ("vacation-low", "baseline+fp+tv", 4, 3, "global-clock validation");
    ("vacation-low", "tree", 4, 3, "runtime capture analysis");
    ("vacation-low", "tree+fp+tv", 4, 3, "capture fast path, global clock");
    ("vacation-low", "tree+lazy", 4, 3, "lazy acquire and redo publish");
    ("vacation-low", "tree+tv+lazy", 4, 3, "lazy commit, global clock");
    ("vacation-low", "tree+tv+lazy+wal", 4, 3, "durable commit record");
    ("kmeans-low", "tree", 2, 7, "nothing captured, hot read-for-write");
    ( "bayes",
      "tree+lazy",
      16,
      1,
      "starvation under partial lazy read-for-write rules" );
    ("bayes", "tree+tv+lazy", 16, 1, "the same starvation, global clock");
  ]

let pins () =
  headline "Pins: single simulator runs (commits, aborts, makespan)";
  List.iter
    (fun (name, spelling, nthreads, seed, guards) ->
      match List.find_opt (fun app -> app.App.name = name) apps with
      | None -> ()
      | Some app ->
          let cfg = config spelling in
          let r = run_sim app cfg ~nthreads ~seed in
          let s = r.Engine.stats in
          Printf.printf
            "%-14s %-16s %2d thr seed %d  commits %6d  aborts %6d  makespan \
             %9d  %s\n"
            name (Config.to_string cfg) nthreads seed s.Stats.commits
            s.Stats.aborts r.Engine.makespan guards)
    pin_cells

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

(* Every section in run order.  The A/B sections run after all of them
   but calibrate: Bechamel settles the heap before every sample with
   [Gc.compact], some thousands of times per run, and under OCaml 5.1
   each explicit collection banks major-GC work credit that the
   allocation-driven slices then pay back by doing no work, so for the
   rest of the process no major cycle completes and every later
   simulator run grows the heap for good.  The one Bechamel section
   therefore runs last. *)
let sections =
  [
    ("fig8", fig8);
    ("fig9", fig9);
    ("table1", table1);
    ("table2", table2);
    ("fig10", fig10);
    ("fig11a", fig11a);
    ("fig11b", fig11b);
    ("ablation", ablation);
    ("pins", pins);
    ("contention", contention);
    ("scale", scale_section);
    ("wal", wal_section);
    ("calibrate", calibrate);
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
  let run (name, run) = if wants name then run () in
  let bechamel, others =
    List.partition (fun (name, _) -> name = "calibrate") sections
  in
  List.iter run others;
  List.iter ab_section
    (if !only = [] then [ "fp"; "tv"; "lazy"; "sf" ]
     else List.filter_map ab_spec !only);
  List.iter run bechamel;
  Printf.printf "\ndone.\n"
