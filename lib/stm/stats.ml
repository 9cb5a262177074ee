type t = {
  mutable commits : int;
  mutable aborts : int;
  mutable user_aborts : int;
  mutable nested_commits : int;
  mutable nested_aborts : int;
  mutable reads : int;
  mutable writes : int;
  mutable reads_elided_stack : int;
  mutable reads_elided_heap : int;
  mutable reads_elided_private : int;
  mutable reads_elided_static : int;
  mutable reads_elided_init : int;
  mutable reads_forwarded : int;
  mutable reads_line_mate : int;
  mutable writes_elided_stack : int;
  mutable writes_elided_heap : int;
  mutable writes_elided_private : int;
  mutable writes_elided_static : int;
  mutable waw_hits : int;
  mutable undo_entries : int;
  mutable validations : int;
  mutable value_rescues : int;
  mutable lock_waits : int;
  mutable audit_reads_heap : int;
  mutable audit_reads_stack : int;
  mutable audit_reads_required : int;
  mutable audit_reads_other : int;
  mutable audit_writes_heap : int;
  mutable audit_writes_stack : int;
  mutable audit_writes_required : int;
  mutable audit_writes_other : int;
  mutable audit_static_violations : int;
  mutable tx_allocs : int;
  mutable tx_frees : int;
  mutable capture_summary_rejects : int;
  mutable capture_mru_hits : int;
  mutable capture_backend_probes : int;
  mutable capture_promotions : int;
  mutable capture_log_overflows : int;
  mutable capture_check_cycles : int;
  mutable capture_site_bypasses : int;
  mutable validations_skipped : int;
  mutable snapshot_extensions : int;
  mutable readonly_fast_commits : int;
  mutable clock_advances : int;
  mutable validation_cycles : int;
  mutable spin_aborts : int;
  mutable waits_extended : int;
  mutable backoff_cycles : int;
  mutable fuel_exhaustions : int;
  mutable sandbox_aborts : int;
  mutable sandbox_bounds : int;
  mutable faults_injected : int;
  mutable cm_max_consec_aborts : int;
  mutable redo_inserts : int;
  mutable redo_hits : int;
  mutable redo_skips : int;
  mutable publish_cycles : int;
  mutable wal_records : int;
  mutable wal_bytes : int;
  mutable wal_fsyncs : int;
  mutable wal_skips : int;
  mutable limbo_blocks : int;
  mutable limbo_words : int;
  mutable epoch_advances : int;
  mutable reclaim_stalls : int;
  mutable grace_waits : int;
  mutable orec_acquires : int;
  mutable rfw_acquires : int;
  mutable conflict_episodes : int;
  conflict_pairs : (int, int) Hashtbl.t;
}

let create () =
  {
    commits = 0;
    aborts = 0;
    user_aborts = 0;
    nested_commits = 0;
    nested_aborts = 0;
    reads = 0;
    writes = 0;
    reads_elided_stack = 0;
    reads_elided_heap = 0;
    reads_elided_private = 0;
    reads_elided_static = 0;
    reads_elided_init = 0;
    reads_forwarded = 0;
    reads_line_mate = 0;
    writes_elided_stack = 0;
    writes_elided_heap = 0;
    writes_elided_private = 0;
    writes_elided_static = 0;
    waw_hits = 0;
    undo_entries = 0;
    validations = 0;
    value_rescues = 0;
    lock_waits = 0;
    audit_reads_heap = 0;
    audit_reads_stack = 0;
    audit_reads_required = 0;
    audit_reads_other = 0;
    audit_writes_heap = 0;
    audit_writes_stack = 0;
    audit_writes_required = 0;
    audit_writes_other = 0;
    audit_static_violations = 0;
    tx_allocs = 0;
    tx_frees = 0;
    capture_summary_rejects = 0;
    capture_mru_hits = 0;
    capture_backend_probes = 0;
    capture_promotions = 0;
    capture_log_overflows = 0;
    capture_check_cycles = 0;
    capture_site_bypasses = 0;
    validations_skipped = 0;
    snapshot_extensions = 0;
    readonly_fast_commits = 0;
    clock_advances = 0;
    validation_cycles = 0;
    spin_aborts = 0;
    waits_extended = 0;
    backoff_cycles = 0;
    fuel_exhaustions = 0;
    sandbox_aborts = 0;
    sandbox_bounds = 0;
    faults_injected = 0;
    cm_max_consec_aborts = 0;
    redo_inserts = 0;
    redo_hits = 0;
    redo_skips = 0;
    publish_cycles = 0;
    wal_records = 0;
    wal_bytes = 0;
    wal_fsyncs = 0;
    wal_skips = 0;
    limbo_blocks = 0;
    limbo_words = 0;
    epoch_advances = 0;
    reclaim_stalls = 0;
    grace_waits = 0;
    orec_acquires = 0;
    rfw_acquires = 0;
    conflict_episodes = 0;
    conflict_pairs = Hashtbl.create 8;
  }

(* Conflict pairs are keyed [(waiter, owner)] packed into one int, 10
   bits per tid. *)
let max_tids = 1024

let note_pair t ~tid ~peer =
  let k = (tid * max_tids) lor peer in
  let prev = match Hashtbl.find_opt t.conflict_pairs k with
    | Some n -> n
    | None -> 0
  in
  Hashtbl.replace t.conflict_pairs k (prev + 1)

let pairs t =
  Hashtbl.fold
    (fun k n acc -> (k / max_tids, k mod max_tids, n) :: acc)
    t.conflict_pairs []
  |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)

type merge = Sum | Max

type counter = {
  name : string;
  merge : merge;
  get : t -> int;
  set : t -> int -> unit;
}

(* One row per integer field of [t], in field order.  [merge], the JSON
   fields and the text report are derived from this table; test_engine
   fails when a field has no row. *)
let counters =
  let row merge name get set = { name; merge; get; set } in
  let sum = row Sum and peak = row Max in
  [
    sum "commits" (fun t -> t.commits) (fun t v -> t.commits <- v);
    sum "aborts" (fun t -> t.aborts) (fun t v -> t.aborts <- v);
    sum "user_aborts" (fun t -> t.user_aborts) (fun t v -> t.user_aborts <- v);
    sum "nested_commits" (fun t -> t.nested_commits)
      (fun t v -> t.nested_commits <- v);
    sum "nested_aborts" (fun t -> t.nested_aborts)
      (fun t v -> t.nested_aborts <- v);
    sum "reads" (fun t -> t.reads) (fun t v -> t.reads <- v);
    sum "writes" (fun t -> t.writes) (fun t v -> t.writes <- v);
    sum "reads_elided_stack" (fun t -> t.reads_elided_stack)
      (fun t v -> t.reads_elided_stack <- v);
    sum "reads_elided_heap" (fun t -> t.reads_elided_heap)
      (fun t v -> t.reads_elided_heap <- v);
    sum "reads_elided_private" (fun t -> t.reads_elided_private)
      (fun t v -> t.reads_elided_private <- v);
    sum "reads_elided_static" (fun t -> t.reads_elided_static)
      (fun t v -> t.reads_elided_static <- v);
    sum "reads_elided_init" (fun t -> t.reads_elided_init)
      (fun t v -> t.reads_elided_init <- v);
    sum "reads_forwarded" (fun t -> t.reads_forwarded)
      (fun t v -> t.reads_forwarded <- v);
    sum "reads_line_mate" (fun t -> t.reads_line_mate)
      (fun t v -> t.reads_line_mate <- v);
    sum "writes_elided_stack" (fun t -> t.writes_elided_stack)
      (fun t v -> t.writes_elided_stack <- v);
    sum "writes_elided_heap" (fun t -> t.writes_elided_heap)
      (fun t v -> t.writes_elided_heap <- v);
    sum "writes_elided_private" (fun t -> t.writes_elided_private)
      (fun t v -> t.writes_elided_private <- v);
    sum "writes_elided_static" (fun t -> t.writes_elided_static)
      (fun t v -> t.writes_elided_static <- v);
    sum "waw_hits" (fun t -> t.waw_hits) (fun t v -> t.waw_hits <- v);
    sum "undo_entries" (fun t -> t.undo_entries)
      (fun t v -> t.undo_entries <- v);
    sum "validations" (fun t -> t.validations) (fun t v -> t.validations <- v);
    sum "value_rescues" (fun t -> t.value_rescues)
      (fun t v -> t.value_rescues <- v);
    sum "lock_waits" (fun t -> t.lock_waits) (fun t v -> t.lock_waits <- v);
    sum "audit_reads_heap" (fun t -> t.audit_reads_heap)
      (fun t v -> t.audit_reads_heap <- v);
    sum "audit_reads_stack" (fun t -> t.audit_reads_stack)
      (fun t v -> t.audit_reads_stack <- v);
    sum "audit_reads_required" (fun t -> t.audit_reads_required)
      (fun t v -> t.audit_reads_required <- v);
    sum "audit_reads_other" (fun t -> t.audit_reads_other)
      (fun t v -> t.audit_reads_other <- v);
    sum "audit_writes_heap" (fun t -> t.audit_writes_heap)
      (fun t v -> t.audit_writes_heap <- v);
    sum "audit_writes_stack" (fun t -> t.audit_writes_stack)
      (fun t v -> t.audit_writes_stack <- v);
    sum "audit_writes_required" (fun t -> t.audit_writes_required)
      (fun t v -> t.audit_writes_required <- v);
    sum "audit_writes_other" (fun t -> t.audit_writes_other)
      (fun t v -> t.audit_writes_other <- v);
    sum "audit_static_violations" (fun t -> t.audit_static_violations)
      (fun t v -> t.audit_static_violations <- v);
    sum "tx_allocs" (fun t -> t.tx_allocs) (fun t v -> t.tx_allocs <- v);
    sum "tx_frees" (fun t -> t.tx_frees) (fun t v -> t.tx_frees <- v);
    sum "capture_summary_rejects" (fun t -> t.capture_summary_rejects)
      (fun t v -> t.capture_summary_rejects <- v);
    sum "capture_mru_hits" (fun t -> t.capture_mru_hits)
      (fun t v -> t.capture_mru_hits <- v);
    sum "capture_backend_probes" (fun t -> t.capture_backend_probes)
      (fun t v -> t.capture_backend_probes <- v);
    sum "capture_promotions" (fun t -> t.capture_promotions)
      (fun t v -> t.capture_promotions <- v);
    sum "capture_log_overflows" (fun t -> t.capture_log_overflows)
      (fun t v -> t.capture_log_overflows <- v);
    sum "capture_check_cycles" (fun t -> t.capture_check_cycles)
      (fun t v -> t.capture_check_cycles <- v);
    sum "capture_site_bypasses" (fun t -> t.capture_site_bypasses)
      (fun t v -> t.capture_site_bypasses <- v);
    sum "validations_skipped" (fun t -> t.validations_skipped)
      (fun t v -> t.validations_skipped <- v);
    sum "snapshot_extensions" (fun t -> t.snapshot_extensions)
      (fun t v -> t.snapshot_extensions <- v);
    sum "readonly_fast_commits" (fun t -> t.readonly_fast_commits)
      (fun t v -> t.readonly_fast_commits <- v);
    sum "clock_advances" (fun t -> t.clock_advances)
      (fun t v -> t.clock_advances <- v);
    sum "validation_cycles" (fun t -> t.validation_cycles)
      (fun t v -> t.validation_cycles <- v);
    sum "spin_aborts" (fun t -> t.spin_aborts) (fun t v -> t.spin_aborts <- v);
    sum "waits_extended" (fun t -> t.waits_extended)
      (fun t v -> t.waits_extended <- v);
    sum "backoff_cycles" (fun t -> t.backoff_cycles)
      (fun t v -> t.backoff_cycles <- v);
    sum "fuel_exhaustions" (fun t -> t.fuel_exhaustions)
      (fun t v -> t.fuel_exhaustions <- v);
    sum "sandbox_aborts" (fun t -> t.sandbox_aborts)
      (fun t v -> t.sandbox_aborts <- v);
    sum "sandbox_bounds" (fun t -> t.sandbox_bounds)
      (fun t v -> t.sandbox_bounds <- v);
    sum "faults_injected" (fun t -> t.faults_injected)
      (fun t v -> t.faults_injected <- v);
    peak "cm_max_consec_aborts" (fun t -> t.cm_max_consec_aborts)
      (fun t v -> t.cm_max_consec_aborts <- v);
    sum "redo_inserts" (fun t -> t.redo_inserts)
      (fun t v -> t.redo_inserts <- v);
    sum "redo_hits" (fun t -> t.redo_hits) (fun t v -> t.redo_hits <- v);
    sum "redo_skips" (fun t -> t.redo_skips) (fun t v -> t.redo_skips <- v);
    sum "publish_cycles" (fun t -> t.publish_cycles)
      (fun t v -> t.publish_cycles <- v);
    sum "wal_records" (fun t -> t.wal_records) (fun t v -> t.wal_records <- v);
    sum "wal_bytes" (fun t -> t.wal_bytes) (fun t v -> t.wal_bytes <- v);
    sum "wal_fsyncs" (fun t -> t.wal_fsyncs) (fun t v -> t.wal_fsyncs <- v);
    sum "wal_skips" (fun t -> t.wal_skips) (fun t v -> t.wal_skips <- v);
    peak "limbo_blocks" (fun t -> t.limbo_blocks)
      (fun t v -> t.limbo_blocks <- v);
    peak "limbo_words" (fun t -> t.limbo_words) (fun t v -> t.limbo_words <- v);
    sum "epoch_advances" (fun t -> t.epoch_advances)
      (fun t v -> t.epoch_advances <- v);
    sum "reclaim_stalls" (fun t -> t.reclaim_stalls)
      (fun t v -> t.reclaim_stalls <- v);
    sum "grace_waits" (fun t -> t.grace_waits) (fun t v -> t.grace_waits <- v);
    sum "orec_acquires" (fun t -> t.orec_acquires)
      (fun t v -> t.orec_acquires <- v);
    sum "rfw_acquires" (fun t -> t.rfw_acquires)
      (fun t v -> t.rfw_acquires <- v);
    sum "conflict_episodes" (fun t -> t.conflict_episodes)
      (fun t v -> t.conflict_episodes <- v);
  ]

let merge acc x =
  List.iter
    (fun c ->
      let a = c.get acc and b = c.get x in
      c.set acc (match c.merge with Sum -> a + b | Max -> max a b))
    counters;
  Hashtbl.iter
    (fun k n ->
      let prev = match Hashtbl.find_opt acc.conflict_pairs k with
        | Some p -> p
        | None -> 0
      in
      Hashtbl.replace acc.conflict_pairs k (prev + n))
    x.conflict_pairs

let sum xs =
  let acc = create () in
  List.iter (merge acc) xs;
  acc

let reads_elided t =
  t.reads_elided_stack + t.reads_elided_heap + t.reads_elided_private
  + t.reads_elided_static + t.reads_elided_init

let writes_elided t =
  t.writes_elided_stack + t.writes_elided_heap + t.writes_elided_private
  + t.writes_elided_static

let abort_ratio t =
  if t.commits = 0 then 0. else float_of_int t.aborts /. float_of_int t.commits

let pp fmt t =
  Format.fprintf fmt
    "commits=%d aborts=%d (ratio %.2f) reads=%d (elided %d) writes=%d \
     (elided %d) waw=%d undo=%d"
    t.commits t.aborts (abort_ratio t) t.reads (reads_elided t) t.writes
    (writes_elided t) t.waw_hits t.undo_entries

(* The conflict-pair list is capped so a pathological run cannot flood a
   JSON line. *)
let json_fields t =
  let pair (tid, peer, n) =
    Printf.sprintf "{\"tid\":%d,\"peer\":%d,\"count\":%d}" tid peer n
  in
  String.concat ","
    (List.map (fun c -> Printf.sprintf "\"%s\":%d" c.name (c.get t)) counters
    @ [
        Printf.sprintf "\"top_conflict_pairs\":[%s]"
          (String.concat ","
             (List.map pair (List.filteri (fun i _ -> i < 8) (pairs t))));
      ])

let report t =
  let b = Buffer.create 1024 in
  let line label fmt = Printf.bprintf b ("%-25s " ^^ fmt ^^ "\n") label in
  List.iter
    (fun c ->
      let v = c.get t in
      if v <> 0 || c.name = "commits" || c.name = "aborts" then
        line (c.name ^ ":") "%d" v)
    counters;
  (match pairs t with
  | [] -> ()
  | (tid, peer, n) :: _ ->
      line "top_conflict_pair:" "t%d vs t%d (%d waits)" tid peer n);
  Buffer.contents b
