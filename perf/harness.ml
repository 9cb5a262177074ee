(* Workloads, legs and metrics.

   Every layer is measured from outside: the benchmark times its own calls
   to the public entry points (App.prepare, Engine.attach_wal,
   Engine.run_native / run_sim, verify, Wal.sync / recover and, for kv,
   each Txn.atomic), reads the public Engine.result (Stats counters,
   per-domain wall), reads Gc counters, and installs its own tracer
   through Txn.set_tracer.  Nothing under lib/ knows it is measured. *)

module Config = Captured_stm.Config
module Engine = Captured_stm.Engine
module Stats = Captured_stm.Stats
module Txn = Captured_stm.Txn
module Wal = Captured_stm.Wal
module App = Captured_apps.App
module Registry = Captured_apps.Registry
module Alloc_log = Captured_core.Alloc_log
module Prng = Captured_util.Prng

let now = Tracing.now

type source = Stamp of App.t | Kv

type workload = { name : string; source : source; config : Config.t }

let app name =
  match Registry.find name with Some a -> a | None -> invalid_arg name

let eager_tree = Config.runtime Alloc_log.Tree |> Config.with_fastpath

(* vacation and kv free memory inside transactions.  Without [+ebr] a
   freed block is recarved while a concurrent attempt still reads it,
   and on real domains that attempt can crash, corrupt the app's state
   or spin forever (vacation-high at 2 domains: 4 of 3000 runs failed);
   with [+ebr] 12000 runs passed.  So both run with epoch-based
   reclamation, and the benchmark stays a workload on which no operation
   fails. *)
let workloads =
  [
    {
      name = "vacation";
      source = Stamp (app "vacation-high");
      config = Config.with_ebr eager_tree;
    };
    { name = "kmeans"; source = Stamp (app "kmeans-high"); config = eager_tree };
    {
      name = "intruder-durable";
      source = Stamp (app "intruder");
      config =
        Config.runtime ~scope:Config.heap_write_only_scope Alloc_log.Tree
        |> Config.with_lazy |> Config.with_tvalidate
        |> Config.with_durable ~group:4
        |> Config.with_ebr;
    };
    { name = "kv"; source = Kv; config = Kv.config };
  ]

let () =
  assert (List.map (fun w -> w.name) workloads = Spec.workload_names)

let is_kv wl = match wl.source with Kv -> true | Stamp _ -> false

type params = {
  seed : int;
  seconds : float;  (** native measuring time of one workload *)
  sim1_seeds : int;  (** seeds of the 1-thread simulator leg *)
  sim16_seeds : int;  (** seeds of the 16-thread simulator leg *)
  kv_ops : int;  (** operations per kv client per native run *)
  trace_dir : string option;  (** [Some dir]: add the traced pass *)
}

(* Simulator kv runs: operations per logical thread. *)
let kv_sim_ops = 512

(* All seeds derive from [--seed]: simulator seeds, [run_native] thread
   seeds (which drive the apps' random choices and the kv key stream). *)
let derive seed tag k =
  let g = Prng.create (seed lxor (Hashtbl.hash tag lsl 20)) in
  Prng.jump g k;
  Prng.bits g

type ctx = {
  p : params;
  wl : workload;
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
  mutable setups : float list;  (** seconds per Large world set-up *)
}

let fail ctx msg =
  ctx.failed <- ctx.failed + 1;
  ctx.errors <- msg :: ctx.errors

type world = { prep : App.prepared; kv : Kv.t option }

(* kv times its operations on native ([Large]) worlds only. *)
let setup ctx ~nthreads ~scale =
  Tracing.span Tracing.setup (fun () ->
      let prep, kv =
        Tracing.span Tracing.prepare (fun () ->
            match ctx.wl.source with
            | Stamp a -> (a.App.prepare ~nthreads ~scale ctx.wl.config, None)
            | Kv ->
                let native = scale = App.Large in
                let ops = if native then ctx.p.kv_ops else kv_sim_ops in
                let k = Kv.build ~timing:native ~nthreads ~scale ~ops () in
                (Kv.prepared k, Some k))
      in
      if ctx.wl.config.Config.durable then
        Tracing.span Tracing.attach (fun () ->
            Engine.attach_wal prep.App.world
              (Wal.create ~group:ctx.wl.config.Config.wal_group ()));
      { prep; kv })

(* A native (Large) world, its set-up time recorded for [setup_s]. *)
let native_world ctx ~nthreads =
  let t0 = now () in
  let w = setup ctx ~nthreads ~scale:App.Large in
  ctx.setups <- (float_of_int (now () - t0) /. 1e9) :: ctx.setups;
  w

type run = {
  result : Engine.result;
  wall_ns : int;  (** the Engine.run_* call alone *)
  minor_words : float;  (** allocated by the calling domain during it *)
  majors : int;
}

(* One run, then the checks: flush and recover the WAL (durable
   workloads), then the workload's own verifier.  A failed check or an
   exception counts against [failed] and yields [None]. *)
let run_once ctx ~mode ~seed w =
  ctx.attempted <- ctx.attempted + 1;
  let world = w.prep.App.world in
  match
    let mw0 = Gc.minor_words () in
    let mj0 = (Gc.quick_stat ()).Gc.major_collections in
    let t0 = now () in
    let result =
      Tracing.span Tracing.run (fun () ->
          match mode with
          | `Native -> Engine.run_native ~seed world w.prep.App.body
          | `Sim -> Engine.run_sim ~seed world w.prep.App.body)
    in
    let wall_ns = now () - t0 in
    let run =
      {
        result;
        wall_ns;
        minor_words = Gc.minor_words () -. mw0;
        majors = (Gc.quick_stat ()).Gc.major_collections - mj0;
      }
    in
    let recovered =
      match Engine.wal world with
      | None -> Ok ()
      | Some wal -> (
          Tracing.span Tracing.sync (fun () -> Wal.sync wal);
          match Tracing.span Tracing.recover (fun () -> Wal.recover wal) with
          | Error m -> Error ("recovery failed: " ^ m)
          | Ok rc ->
              let replayed = List.length rc.Wal.r_applied_seqs in
              if replayed = Wal.synced_seq wal then Ok ()
              else
                Error
                  (Printf.sprintf "recovery replayed %d of %d synced commits"
                     replayed (Wal.synced_seq wal)))
    in
    (run, Result.bind recovered (fun () -> Tracing.span Tracing.verify w.prep.App.verify))
  with
  | run, Ok () -> Some run
  | _, Error m ->
      fail ctx m;
      None
  | exception e ->
      fail ctx (Printexc.to_string e);
      None

type leg = {
  mutable runs : int;
  mutable commits : int;
  mutable wall : int;  (** ns, measured runs *)
  mutable rates : float list;  (** commits/s of each measured run *)
  mutable stats : Stats.t list;
  mutable imbalance : float list;
  mutable minor_words : float;
  mutable majors : int;
  mutable lat : int array list;  (** latency samples, one array per run *)
  mutable run_spans : int list;  (** traced pass: [run] span of each run *)
}

let leg_stats leg = Stats.sum leg.stats

(* One native leg: closed loop on [domains] domains.  [samples w] runs
   after each run and keeps the measured runs' latency samples; [wrap]
   surrounds each of this leg's runs (installing or suspending a
   tracer). *)
type spec = {
  domains : int;
  window : float;  (** seconds of measured run time *)
  first : world option;  (** a world already built, used first *)
  wrap : (unit -> run option) -> run option;
  samples : (world -> int array) option;
}

let spec ?first ?(wrap = fun f -> f ()) ?samples ~domains window =
  { domains; window; first; wrap; samples }

(* [wrap] for a leg whose runs report to [tracer] alone. *)
let with_tracer tracer f =
  Txn.set_tracer (Some tracer);
  Fun.protect ~finally:(fun () -> Txn.set_tracer None) f

(* Runs the legs interleaved, one run at a time, always advancing the leg
   furthest behind its window: every leg then samples the whole native
   phase, so a slow spell of the host (other tenants) lands on all legs
   in proportion instead of on whichever leg ran through it.  Each leg
   starts with one discarded warm-up run and ends when its measured run
   time (set-up and checks excluded) reaches its window, or when [stop ()]
   says the trace buffers are full.  Every run gets a freshly built
   world. *)
let native_legs ctx ?(stop = fun () -> false) specs =
  let legs =
    List.map
      (fun sp ->
        let leg =
          {
            runs = 0;
            commits = 0;
            wall = 0;
            rates = [];
            stats = [];
            imbalance = [];
            minor_words = 0.;
            majors = 0;
            lat = [];
            run_spans = [];
          }
        in
        (sp, leg, ref sp.first, ref 0))
      specs
  in
  let step (sp, leg, current, k) ~measure =
    let w =
      match !current with
      | Some w ->
          current := None;
          w
      | None -> native_world ctx ~nthreads:sp.domains
    in
    let seed = derive ctx.p.seed (Printf.sprintf "%s/native/%d" ctx.wl.name sp.domains) !k in
    incr k;
    let run = sp.wrap (fun () -> run_once ctx ~mode:`Native ~seed w) in
    let lat = Option.map (fun f -> f w) sp.samples in
    match run with
    | Some r when measure ->
        let s = r.result.Engine.stats in
        leg.runs <- leg.runs + 1;
        leg.commits <- leg.commits + s.Stats.commits;
        leg.wall <- leg.wall + r.wall_ns;
        leg.rates <-
          (float_of_int s.Stats.commits /. (float_of_int (max 1 r.wall_ns) /. 1e9))
          :: leg.rates;
        leg.stats <- s :: leg.stats;
        let pw = r.result.Engine.per_thread_wall in
        let hi = Array.fold_left max 0. pw and lo = Array.fold_left min infinity pw in
        leg.imbalance <- (if hi > 0. then (hi -. lo) /. hi else 0.) :: leg.imbalance;
        leg.minor_words <- leg.minor_words +. r.minor_words;
        leg.majors <- leg.majors + r.majors;
        Option.iter (fun id -> leg.run_spans <- id :: leg.run_spans) (Tracing.last_run ());
        Option.iter (fun a -> leg.lat <- a :: leg.lat) lat
    | Some _ | None -> ()
  in
  let progress (sp, leg, _, _) = float_of_int leg.wall /. (sp.window *. 1e9) in
  List.iter (step ~measure:false) legs;
  List.iter (step ~measure:true) legs;
  let total = List.fold_left (fun a sp -> a +. sp.window) 0. specs in
  let give_up = now () + int_of_float (4e9 *. total) + 5_000_000_000 in
  let rec loop () =
    let behind =
      List.fold_left
        (fun best l ->
          match best with
          | Some b when progress b <= progress l -> best
          | _ -> if progress l < 1. then Some l else best)
        None legs
    in
    match behind with
    | Some l when (not (stop ())) && now () < give_up ->
        step l ~measure:true;
        loop ()
    | _ -> ()
  in
  loop ();
  List.map (fun (_, leg, _, _) -> leg) legs

(* Simulator leg: one Bench-scale world per seed.  Virtual time does not
   depend on the host, so the seeds are split over two domains (odd ones
   on a spawned domain, with its own copy of the run counters); results
   come back in seed order, so every sum and mean is bit-reproducible. *)
let sim_leg ctx ~threads ~seeds =
  let tag = Printf.sprintf "%s/sim/%d" ctx.wl.name threads in
  let share parity =
    let c = { ctx with attempted = 0; failed = 0; errors = []; setups = [] } in
    let results =
      List.filter_map
        (fun k ->
          if k mod 2 <> parity then None
          else
            let w = setup c ~nthreads:threads ~scale:App.Bench in
            Option.map (fun r -> (k, r.result)) (run_once c ~mode:`Sim ~seed:(derive c.p.seed tag k) w))
        (List.init seeds Fun.id)
    in
    (c, results)
  in
  let other = Domain.spawn (fun () -> share 1) in
  let c0, r0 = share 0 in
  let c1, r1 = Domain.join other in
  List.iter
    (fun c ->
      ctx.attempted <- ctx.attempted + c.attempted;
      ctx.failed <- ctx.failed + c.failed;
      ctx.errors <- c.errors @ ctx.errors)
    [ c0; c1 ];
  List.map snd (List.sort (fun (a, _) (b, _) -> compare a b) (r0 @ r1))

(* ------------------------------------------------------------------ *)
(* Numbers                                                              *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

let median l =
  let a = sorted (Array.of_list l) in
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean l =
  match l with
  | [] -> 0.
  | _ -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

(* Nearest-rank percentile of sorted samples. *)
let pct (a : int array) q =
  let n = Array.length a in
  if n = 0 then 0
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

(* A leg's throughput and latency percentiles are medians over its runs:
   a burst of interference from outside the process spoils a few runs,
   not the figure. *)
let tput leg = median leg.rates
let run_pct leg q = median (List.map (fun a -> float_of_int (pct (sorted a) q)) leg.lat)

let us ns = float_of_int ns /. 1e3
let ratio a b = float_of_int a /. float_of_int (max 1 b)

(* ------------------------------------------------------------------ *)
(* Output                                                               *)

type value = { metric : Spec.metric; v : float; n : int }

let number v = if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v else Printf.sprintf "%.17g" v

let emit ~workload ~seed { metric; v; n } =
  Printf.printf
    "{\"workload\":%s,\"metric\":%s,\"value\":%s,\"unit\":%s,\"kind\":%s,\"n\":%d,\"seed\":%d}\n"
    (Spec.json_string workload) (Spec.json_string metric.Spec.name) (number v)
    (Spec.json_string metric.Spec.unit_)
    (Spec.json_string (Spec.kind_string metric.Spec.kind))
    n seed

let value name ?(n = 1) v =
  match Spec.find name with
  | Some metric -> { metric; v; n }
  | None -> invalid_arg ("undeclared metric " ^ name)

(* ------------------------------------------------------------------ *)
(* One workload                                                         *)

type outcome = {
  values : value list;  (** in declaration order *)
  spans : (string * int * int * int) list;  (** traced pass self times *)
  attempted : int;
  failed : int;
  errors : string list;
  purpose : string list;  (** failed workload-purpose assertions *)
}

(* The traced pass: the 1- and 2-domain legs again under the benchmark's
   tracer, at a fraction of the untraced window and within the span
   buffers, interleaved with an untraced 1-domain leg: the tracing
   overhead compares runs of the same stretch of time, which a host whose
   speed drifts requires. *)
let trace_cap = 1 lsl 20

let traced_pass ctx ~dir =
  let t = Tracing.start ~tids:2 ~cap:trace_cap in
  let legs =
    Fun.protect
      ~finally:(fun () -> Tracing.stop t)
      (fun () ->
        Tracing.span Tracing.workload (fun () ->
            let window = ctx.p.seconds /. 8. in
            match
              native_legs ctx
                ~stop:(fun () -> Tracing.used t >= trace_cap / 4)
                [
                  spec ~domains:1 window;
                  spec ~domains:2 window;
                  spec ~wrap:Tracing.suspend ~domains:1 window;
                ]
            with
            | [ l1; l2; plain ] -> (l1, l2, plain)
            | _ -> assert false))
  in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Tracing.write_chrome t (Filename.concat dir (ctx.wl.name ^ ".trace.json"));
  (t, legs)

let run_workload p wl =
  let ctx = { p; wl; attempted = 0; failed = 0; errors = []; setups = [] } in
  Captured_core.Site.reset_verdicts ();
  (* Live heap with one built world: measured first, on a clean heap, and
     the world then serves as the 1-domain leg's warm-up run. *)
  Gc.full_major ();
  let w0 = native_world ctx ~nthreads:1 in
  Gc.full_major ();
  let live_mb =
    float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1048576.
  in
  let window share = p.seconds *. share in
  (* Latency is measured on one domain: with two, the host's placement of
     the two virtual CPUs moves it further than any bound (README.md).
     [kv_ops]: kv samples, [(ns lsl 2) lor kind]; [lat]: the leg whose
     runs give [op_*], samples in ns. *)
  let n1, n2, kv_ops, lat =
    if is_kv wl then
      let kv_samples w =
        match w.kv with Some k -> Array.concat (Array.to_list k.Kv.lat) | None -> [||]
      in
      match
        native_legs ctx
          [
            spec ~first:w0 ~samples:kv_samples ~domains:1 (window (2. /. 3.));
            spec ~domains:2 (window (1. /. 3.));
          ]
      with
      | [ n1; n2 ] ->
          let ops = Array.concat n1.lat in
          (n1, n2, ops, { n1 with lat = List.map (Array.map (fun x -> x lsr 2)) n1.lat })
      | _ -> assert false
    else
      (* STAMP transactions run inside app code: their latency comes from
         a third leg under a latency-only tracer, so the throughput legs
         stay untraced. *)
      let l = Tracing.Latency.create ~cap:(1 lsl 20) in
      match
        native_legs ctx
          [
            spec ~first:w0 ~domains:1 (window 0.5);
            spec ~domains:2 (window 0.25);
            spec
              ~wrap:(with_tracer (Tracing.Latency.on_event l))
              ~samples:(fun _ -> Tracing.Latency.take l)
              ~domains:1 (window 0.25);
          ]
      with
      | [ n1; n2; lat ] -> (n1, n2, [||], lat)
      | _ -> assert false
  in
  let pooled = sorted (Array.concat lat.lat) in
  let sim1 = sim_leg ctx ~threads:1 ~seeds:p.sim1_seeds in
  let sim16 = sim_leg ctx ~threads:16 ~seeds:p.sim16_seeds in
  (* Determinism: the first sim1 seed again must be bit-identical. *)
  (match sim1 with
  | first :: _ -> (
      let seed = derive p.seed (Printf.sprintf "%s/sim/1" wl.name) 0 in
      let w = setup ctx ~nthreads:1 ~scale:App.Bench in
      match run_once ctx ~mode:`Sim ~seed w with
      | Some again ->
          let fp (r : Engine.result) =
            (r.Engine.makespan, Format.asprintf "%a" Stats.pp r.Engine.stats)
          in
          if fp again.result <> fp first then
            fail ctx "sim1 is not bit-identical when run twice"
      | None -> ())
  | [] -> ());
  let mk (r : Engine.result) = float_of_int r.Engine.makespan /. 1e6 in
  let s1 = Stats.sum (List.map (fun (r : Engine.result) -> r.Engine.stats) sim1) in
  let s16 = Stats.sum (List.map (fun (r : Engine.result) -> r.Engine.stats) sim16) in
  let ns1 = leg_stats n1 and ns2 = leg_stats n2 in
  let e2e =
    [
      value "tput_1d" ~n:n1.runs (tput n1);
      value "tput_2d" ~n:n2.runs (tput n2);
      value "sim1_mcycles" ~n:(List.length sim1) (mean (List.map mk sim1));
      value "sim16_mcycles" ~n:(List.length sim16) (mean (List.map mk sim16));
      value "setup_s" ~n:(List.length ctx.setups) (median ctx.setups);
      value "setup_live_mb" live_mb;
      value "op_p50_us" ~n:lat.runs (run_pct lat 0.50 /. 1e3);
      value "op_p99_us" ~n:lat.runs (run_pct lat 0.99 /. 1e3);
      value "op_p999_us" ~n:(Array.length pooled) (us (pct pooled 0.999));
    ]
  in
  (* Workload-purpose assertions: each workload must keep exercising the
     layer it is in the set for. *)
  let all = Stats.sum [ s1; s16; ns1; ns2 ] in
  let elided_w = Stats.writes_elided s1 in
  let purpose = ref [] in
  let require cond msg = if not cond then purpose := msg :: !purpose in
  (match wl.name with
  | "kmeans" ->
      require
        (Stats.reads_elided all + Stats.writes_elided all = 0)
        "kmeans must elide nothing";
      require (Stats.abort_ratio s16 > 0.5) "kmeans sim16 abort/commit must exceed 0.5"
  | "vacation" ->
      require (ratio elided_w s1.Stats.writes > 0.5)
        "vacation must elide more than half of its writes"
  | "intruder-durable" ->
      require (elided_w > 0 && s1.Stats.wal_skips = elided_w)
        "intruder-durable: every elided write must skip the WAL";
      require (s16.Stats.limbo_blocks > 0) "intruder-durable: limbo must fill";
      require (s1.Stats.redo_skips > 0) "intruder-durable: redo must be skipped"
  | "kv" ->
      require
        (ratio s1.Stats.readonly_fast_commits s1.Stats.commits > 0.8)
        "kv must commit most transactions on the read-only fast path";
      require (Stats.abort_ratio s16 < 0.05) "kv sim16 abort/commit must stay below 0.05"
  | _ -> ());
  let zero = List.for_all (( = ) 0) in
  if not wl.config.Config.durable then
    require
      (zero
         [
           all.Stats.redo_inserts; all.Stats.redo_hits; all.Stats.redo_skips;
           all.Stats.publish_cycles; all.Stats.wal_records; all.Stats.wal_bytes;
           all.Stats.wal_fsyncs; all.Stats.wal_skips;
         ])
      (wl.name ^ " is not durable: redo and wal counters must stay 0");
  if not wl.config.Config.ebr then
    require
      (zero
         [ all.Stats.limbo_blocks; all.Stats.epoch_advances; all.Stats.reclaim_stalls ])
      (wl.name ^ " runs without ebr: reclaim counters must stay 0");
  let layer, spans =
    match p.trace_dir with
    | None -> ([], [])
    | Some dir ->
        let t, (t1, t2, plain) = traced_pass ctx ~dir in
        let nest_errors, first = Tracing.check_nesting t in
        if nest_errors > 0 then
          fail ctx
            (Printf.sprintf "trace: %d badly nested spans, first: %s" nest_errors
               (Option.value first ~default:""));
        let runs1 = Hashtbl.create 64 and runs2 = Hashtbl.create 64 in
        List.iter (fun id -> Hashtbl.replace runs1 id ()) t1.run_spans;
        List.iter (fun id -> Hashtbl.replace runs2 id ()) t2.run_spans;
        let lat2 = ref [] and attempts2 = ref 0 and commits2 = ref 0 in
        let attempt_ns = ref 0 and wasted_ns = ref 0 in
        let run1_ns = ref 0 and txn1_ns = ref 0 in
        let timed =
          List.map
            (fun nm -> (nm, ref []))
            [ Tracing.prepare; Tracing.verify; Tracing.attach; Tracing.recover ]
        in
        Tracing.iter t (fun id ->
            let nm = Tracing.name_of t id in
            (match List.assoc_opt nm timed with
            | Some r -> r := float_of_int (Tracing.dur t id) /. 1e6 :: !r
            | None -> ());
            if nm = Tracing.run && Hashtbl.mem runs1 id then
              run1_ns := !run1_ns + Tracing.dur t id
            else if nm = Tracing.txn then begin
              let parent = Tracing.parent_of t id in
              if Hashtbl.mem runs1 parent then txn1_ns := !txn1_ns + Tracing.dur t id
              else if Hashtbl.mem runs2 parent && Tracing.committed t id then begin
                lat2 := Tracing.dur t id :: !lat2;
                incr commits2
              end
            end
            else if nm = Tracing.attempt
                    && Hashtbl.mem runs2 (Tracing.parent_of t (Tracing.parent_of t id))
            then begin
              incr attempts2;
              attempt_ns := !attempt_ns + Tracing.dur t id;
              if not (Tracing.committed t id) then
                wasted_ns := !wasted_ns + Tracing.dur t id
            end);
        let lat2 = sorted (Array.of_list !lat2) in
        let timed_ms nm = median !(List.assoc nm timed) in
        (* 0 on the STAMP workloads, which have no kv operations. *)
        let kv_p50 kind =
          let of_kind = List.filter (fun x -> x land 3 = kind) (Array.to_list kv_ops) in
          us (pct (sorted (Array.of_list (List.map (fun x -> x lsr 2) of_kind))) 0.5)
        in
        let per c x = ratio x c in
        let c1 = s1.Stats.commits and c16 = s16.Stats.commits in
        let heap_checks =
          s1.Stats.capture_summary_rejects + s1.Stats.capture_mru_hits
          + s1.Stats.capture_backend_probes
        in
        let makespan16 =
          List.fold_left (fun a (r : Engine.result) -> a + r.Engine.makespan) 0 sim16
        in
        let redo_total = s1.Stats.redo_inserts + s1.Stats.waw_hits + s1.Stats.redo_skips in
        ( [
            value "core.check_cycles_per_commit" (per c1 s1.Stats.capture_check_cycles);
            value "core.summary_rejects_per_commit" (per c1 s1.Stats.capture_summary_rejects);
            value "core.mru_hits_per_commit" (per c1 s1.Stats.capture_mru_hits);
            value "core.backend_probes_per_commit" (per c1 s1.Stats.capture_backend_probes);
            value "core.elided_write_share" (ratio elided_w s1.Stats.writes);
            value "core.elided_read_share" (ratio (Stats.reads_elided s1) s1.Stats.reads);
            value "core.check_useful_ratio"
              (ratio (s1.Stats.reads_elided_heap + s1.Stats.writes_elided_heap) heap_checks);
            value "txn.reads_per_commit" (per c1 s1.Stats.reads);
            value "txn.writes_per_commit" (per c1 s1.Stats.writes);
            value "txn.undo_per_commit" (per c1 s1.Stats.undo_entries);
            value "txn.validation_cycles_per_commit_sim1" (per c1 s1.Stats.validation_cycles);
            value "txn.validation_cycles_per_commit_sim16" (per c16 s16.Stats.validation_cycles);
            value "txn.snapshot_extensions_per_commit" (per c1 s1.Stats.snapshot_extensions);
            value "txn.readonly_fast_share" (ratio s1.Stats.readonly_fast_commits c1);
            value "txn.latency_p50_us" ~n:(Array.length lat2) (us (pct lat2 0.5));
            value "txn.latency_p99_us" ~n:(Array.length lat2) (us (pct lat2 0.99));
            value "txn.attempts_per_commit" (ratio !attempts2 !commits2);
            value "txn.wasted_share" (ratio !wasted_ns !attempt_ns);
            value "orec.lock_waits_per_commit" (per c16 s16.Stats.lock_waits);
            value "orec.spin_abort_share" (ratio s16.Stats.spin_aborts s16.Stats.aborts);
            value "orec.clock_advances_per_commit" (per c16 s16.Stats.clock_advances);
            value "cm.abort_ratio_sim16" (Stats.abort_ratio s16);
            value "cm.abort_ratio_2d" (Stats.abort_ratio ns2);
            value "cm.backoff_share" (ratio s16.Stats.backoff_cycles (16 * makespan16));
            value "cm.max_consec_aborts" (float_of_int s16.Stats.cm_max_consec_aborts);
            value "redo.inserts_per_commit" (per c1 s1.Stats.redo_inserts);
            value "redo.skip_share" (ratio s1.Stats.redo_skips redo_total);
            value "redo.publish_cycles_per_commit" (per c1 s1.Stats.publish_cycles);
            value "wal.bytes_per_commit" (per c1 s1.Stats.wal_bytes);
            value "wal.fsyncs_per_commit" (per c1 s1.Stats.wal_fsyncs);
            value "wal.skip_share" (ratio s1.Stats.wal_skips elided_w);
            value "wal.attach_ms" (timed_ms Tracing.attach);
            value "wal.recover_ms" (timed_ms Tracing.recover);
            value "reclaim.limbo_blocks_max" (float_of_int s16.Stats.limbo_blocks);
            value "reclaim.epoch_advances_per_commit" (per c16 s16.Stats.epoch_advances);
            value "reclaim.stalls_per_commit" (per c16 s16.Stats.reclaim_stalls);
            value "tmem.allocs_per_commit" (per c1 s1.Stats.tx_allocs);
            value "tmem.frees_per_commit" (per c1 s1.Stats.tx_frees);
            value "apps.prepare_ms" (timed_ms Tracing.prepare);
            value "apps.verify_ms" (timed_ms Tracing.verify);
            value "kv.find_p50_us" (kv_p50 Kv.k_find);
            value "kv.update_p50_us" (kv_p50 Kv.k_update);
            value "kv.remove_p50_us" (kv_p50 Kv.k_remove);
            value "engine.outside_txn_share"
              (1. -. (float_of_int !txn1_ns /. float_of_int (max 1 !run1_ns)));
            value "engine.domain_imbalance" ~n:n2.runs (median n2.imbalance);
            value "gc.minor_words_per_commit" (n1.minor_words /. float_of_int (max 1 n1.commits));
            value "gc.major_collections_per_run"
              (ratio (n1.majors + n2.majors) (n1.runs + n2.runs));
            value "trace.overhead_pct" ~n:t1.runs
              (100. *. (tput plain -. tput t1) /. Float.max (tput plain) 1.);
            value "trace.dropped_spans" (float_of_int (Tracing.dropped t));
          ],
          Tracing.self_times t )
  in
  let failed_share = value "failed_share" ~n:ctx.attempted (ratio ctx.failed ctx.attempted) in
  {
    values = e2e @ [ failed_share ] @ layer;
    spans;
    attempted = ctx.attempted;
    failed = ctx.failed;
    errors = List.rev ctx.errors;
    purpose = List.rev !purpose;
  }
