(* The benchmark's one declaration of its workloads and metrics.

   BENCHMARK.json at the repository root is generated from this module
   ([perf.exe --describe > BENCHMARK.json]) and the smoke rule diffs the
   two, so a metric cannot be printed under one name or unit and gated
   under another. *)

type better = Higher | Lower

type kind =
  | E2e of float
      (** End-to-end, gated: the bound is the worsening tolerated, as a
          share of the parent's median. *)
  | Gate
      (** End-to-end, must read exactly 0.  Kept out of BENCHMARK.json,
          whose bounds are relative to a median that is never 0; the
          result line's [failed] count carries it instead. *)
  | Info  (** Printed beside the end-to-end metrics, never gated. *)
  | Layer  (** Per-layer, from the traced run; no bound. *)

type metric = { name : string; unit_ : string; better : better; kind : kind }

let m ?(better = Lower) name unit_ kind = { name; unit_; better; kind }

(* Seconds of native run time one workload measures, all its native legs
   together; [--seconds] overrides it. *)
let run_seconds = 8

let command = [ "dune"; "exec"; "--display=quiet"; "--"; "perf/perf.exe" ]
let paths = [ "perf" ]

(* Why each workload is in the set: each one exercises a layer the others
   bypass (choosing-metrics guide, section 5). *)
let workloads =
  [
    ( "vacation",
      "Headline app: most writes are captured, so capture checks hit, tmem \
       alloc/free runs inside transactions and elision removes false \
       conflicts at 16 threads" );
    ( "kmeans",
      "Nothing is captured, so every capture check is wasted; tiny \
       transactions on hot centroids give the highest conflict rate \
       (orec and cm stress)" );
    ( "intruder-durable",
      "Only workload on the lazy redo, WAL and epoch-reclamation paths: \
       captured writes skip the redo buffer and the log, with frees and \
       contention" );
    ( "kv",
      "Skewed ordered map, 90% finds: read-only fast path, low \
       contention, frees under ebr, and the one workload whose \
       transactions are timed one by one, untraced" );
  ]

let workload_names = List.map fst workloads

let metrics =
  [
    (* End to end, measured with tracing off.  Bounds are set from the
       run-to-run spread over ten seeds (README.md).  Wall-clock
       throughput and latency on a host shared with other tenants moved
       by up to a third between runs, more than the widest bound (0.25),
       so they are reported, not gated; set-up time is gated at that bound
       so that work moved into set-up shows. *)
    m "sim1_mcycles" "Mcycles" (E2e 0.02);
    m "sim16_mcycles" "Mcycles" (E2e 0.12);
    m "setup_s" "s" (E2e 0.25);
    m "setup_live_mb" "MB" (E2e 0.05);
    m ~better:Higher "tput_1d" "commits/s" Info;
    m ~better:Higher "tput_2d" "commits/s" Info;
    m "op_p50_us" "us" Info;
    m "op_p99_us" "us" Info;
    m "op_p999_us" "us" Info;
    m "failed_share" "ratio" Gate;
    (* core: Alloc_log / Capture_cache / range backends (sim1 stats). *)
    m "core.check_cycles_per_commit" "cycles" Layer;
    m ~better:Higher "core.summary_rejects_per_commit" "count" Layer;
    m ~better:Higher "core.mru_hits_per_commit" "count" Layer;
    m "core.backend_probes_per_commit" "count" Layer;
    m ~better:Higher "core.elided_write_share" "ratio" Layer;
    m ~better:Higher "core.elided_read_share" "ratio" Layer;
    m ~better:Higher "core.check_useful_ratio" "ratio" Layer;
    (* txn: barrier counts (sim1), validation (sim1, sim16), and tracer
       spans of the traced 2-domain leg. *)
    m "txn.reads_per_commit" "count" Layer;
    m "txn.writes_per_commit" "count" Layer;
    m "txn.undo_per_commit" "count" Layer;
    m "txn.validation_cycles_per_commit_sim1" "cycles" Layer;
    m "txn.validation_cycles_per_commit_sim16" "cycles" Layer;
    m "txn.snapshot_extensions_per_commit" "count" Layer;
    m ~better:Higher "txn.readonly_fast_share" "ratio" Layer;
    m "txn.latency_p50_us" "us" Layer;
    m "txn.latency_p99_us" "us" Layer;
    m "txn.attempts_per_commit" "count" Layer;
    m "txn.wasted_share" "ratio" Layer;
    (* orec (sim16). *)
    m "orec.lock_waits_per_commit" "count" Layer;
    m "orec.spin_abort_share" "ratio" Layer;
    m "orec.clock_advances_per_commit" "count" Layer;
    (* cm. *)
    m "cm.abort_ratio_sim16" "ratio" Layer;
    m "cm.abort_ratio_2d" "ratio" Layer;
    m "cm.backoff_share" "ratio" Layer;
    m "cm.max_consec_aborts" "count" Layer;
    (* redo (sim1). *)
    m "redo.inserts_per_commit" "count" Layer;
    m ~better:Higher "redo.skip_share" "ratio" Layer;
    m "redo.publish_cycles_per_commit" "cycles" Layer;
    (* wal (sim1 counters, timed calls of the traced run). *)
    m "wal.bytes_per_commit" "B" Layer;
    m "wal.fsyncs_per_commit" "count" Layer;
    m ~better:Higher "wal.skip_share" "ratio" Layer;
    m "wal.attach_ms" "ms" Layer;
    m "wal.recover_ms" "ms" Layer;
    (* reclaim (sim16). *)
    m "reclaim.limbo_blocks_max" "count" Layer;
    m "reclaim.epoch_advances_per_commit" "count" Layer;
    m "reclaim.stalls_per_commit" "count" Layer;
    (* tmem (sim1). *)
    m "tmem.allocs_per_commit" "count" Layer;
    m "tmem.frees_per_commit" "count" Layer;
    (* apps / tstruct. *)
    m "apps.prepare_ms" "ms" Layer;
    m "apps.verify_ms" "ms" Layer;
    m "kv.find_p50_us" "us" Layer;
    m "kv.update_p50_us" "us" Layer;
    m "kv.remove_p50_us" "us" Layer;
    (* engine. *)
    m "engine.outside_txn_share" "ratio" Layer;
    m "engine.domain_imbalance" "ratio" Layer;
    (* gc. *)
    m "gc.minor_words_per_commit" "words" Layer;
    m "gc.major_collections_per_run" "count" Layer;
    (* trace. *)
    m "trace.overhead_pct" "%" Layer;
    m "trace.dropped_spans" "count" Layer;
  ]

let find name = List.find_opt (fun x -> x.name = name) metrics
let e2e = List.filter (fun x -> match x.kind with E2e _ -> true | _ -> false) metrics
let layer = List.filter (fun x -> x.kind = Layer) metrics

let kind_string = function
  | E2e _ -> "e2e"
  | Gate -> "gate"
  | Info -> "info"
  | Layer -> "layer"

let better_string = function Higher -> "higher" | Lower -> "lower"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* BENCHMARK.json, byte for byte. *)
let describe () =
  let b = Buffer.create 8192 in
  let p fmt = Printf.bprintf b fmt in
  let list items render =
    List.iteri
      (fun i x ->
        p "    %s%s\n" (render x) (if i < List.length items - 1 then "," else ""))
      items
  in
  p "{\n";
  p "  \"command\": [%s],\n"
    (String.concat ", " (List.map json_string command));
  p "  \"paths\": [%s],\n" (String.concat ", " (List.map json_string paths));
  p "  \"run_seconds\": %d,\n" run_seconds;
  p "  \"workloads\": [\n";
  list workloads (fun (n, why) ->
      Printf.sprintf "{\"name\": %s, \"why\": %s}" (json_string n)
        (json_string why));
  p "  ],\n  \"end_to_end\": [\n";
  list e2e (fun x ->
      let bound = match x.kind with E2e b -> b | _ -> assert false in
      Printf.sprintf
        "{\"name\": %s, \"unit\": %s, \"better\": %s, \"bound\": %g}"
        (json_string x.name) (json_string x.unit_)
        (json_string (better_string x.better))
        bound);
  p "  ],\n  \"per_layer\": [\n";
  list layer (fun x ->
      Printf.sprintf "{\"name\": %s, \"unit\": %s, \"better\": %s}"
        (json_string x.name) (json_string x.unit_)
        (json_string (better_string x.better)));
  p "  ]\n}\n";
  Buffer.contents b
