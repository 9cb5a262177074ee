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
  mutable reads_forwarded : int;
  mutable writes_elided_stack : int;
  mutable writes_elided_heap : int;
  mutable writes_elided_private : int;
  mutable writes_elided_static : int;
  mutable waw_hits : int;
  mutable undo_entries : int;
  mutable validations : int;
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
  mutable backoff_cycles : int;
  mutable fuel_exhaustions : int;
  mutable sandbox_aborts : int;
  mutable sandbox_bounds : int;
  mutable faults_injected : int;
  mutable cm_max_consec_aborts : int;
  mutable cm_starvation_events : int;
  mutable clock_resyncs : int;
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
  mutable shard_acquires : int array;
  mutable shard_conflicts : int array;
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
    reads_forwarded = 0;
    writes_elided_stack = 0;
    writes_elided_heap = 0;
    writes_elided_private = 0;
    writes_elided_static = 0;
    waw_hits = 0;
    undo_entries = 0;
    validations = 0;
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
    backoff_cycles = 0;
    fuel_exhaustions = 0;
    sandbox_aborts = 0;
    sandbox_bounds = 0;
    faults_injected = 0;
    cm_max_consec_aborts = 0;
    cm_starvation_events = 0;
    clock_resyncs = 0;
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
    shard_acquires = [||];
    shard_conflicts = [||];
    conflict_pairs = Hashtbl.create 8;
  }

let ensure_shards t n =
  if Array.length t.shard_acquires < n then begin
    let grow a =
      let b = Array.make n 0 in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    t.shard_acquires <- grow t.shard_acquires;
    t.shard_conflicts <- grow t.shard_conflicts
  end

(* Conflict pairs are keyed [(shard, waiter, owner)] packed into one int:
   tids fit the stamp's 10-bit field ({!Orec.tid_bits}), so 20 low bits
   carry the pair and the rest the shard. *)
let pair_key ~shard ~tid ~peer = (shard lsl 20) lor (tid lsl 10) lor peer

let note_pair t ~shard ~tid ~peer =
  let k = pair_key ~shard ~tid ~peer in
  let prev = match Hashtbl.find_opt t.conflict_pairs k with
    | Some n -> n
    | None -> 0
  in
  Hashtbl.replace t.conflict_pairs k (prev + 1)

let pairs t =
  Hashtbl.fold
    (fun k n acc -> (k lsr 20, (k lsr 10) land 1023, k land 1023, n) :: acc)
    t.conflict_pairs []
  |> List.sort (fun (_, _, _, a) (_, _, _, b) -> compare b a)

let reset t =
  t.commits <- 0;
  t.aborts <- 0;
  t.user_aborts <- 0;
  t.nested_commits <- 0;
  t.nested_aborts <- 0;
  t.reads <- 0;
  t.writes <- 0;
  t.reads_elided_stack <- 0;
  t.reads_elided_heap <- 0;
  t.reads_elided_private <- 0;
  t.reads_elided_static <- 0;
  t.reads_forwarded <- 0;
  t.writes_elided_stack <- 0;
  t.writes_elided_heap <- 0;
  t.writes_elided_private <- 0;
  t.writes_elided_static <- 0;
  t.waw_hits <- 0;
  t.undo_entries <- 0;
  t.validations <- 0;
  t.lock_waits <- 0;
  t.audit_reads_heap <- 0;
  t.audit_reads_stack <- 0;
  t.audit_reads_required <- 0;
  t.audit_reads_other <- 0;
  t.audit_writes_heap <- 0;
  t.audit_writes_stack <- 0;
  t.audit_writes_required <- 0;
  t.audit_writes_other <- 0;
  t.audit_static_violations <- 0;
  t.tx_allocs <- 0;
  t.tx_frees <- 0;
  t.capture_summary_rejects <- 0;
  t.capture_mru_hits <- 0;
  t.capture_backend_probes <- 0;
  t.capture_promotions <- 0;
  t.capture_log_overflows <- 0;
  t.capture_check_cycles <- 0;
  t.capture_site_bypasses <- 0;
  t.validations_skipped <- 0;
  t.snapshot_extensions <- 0;
  t.readonly_fast_commits <- 0;
  t.clock_advances <- 0;
  t.validation_cycles <- 0;
  t.spin_aborts <- 0;
  t.backoff_cycles <- 0;
  t.fuel_exhaustions <- 0;
  t.sandbox_aborts <- 0;
  t.sandbox_bounds <- 0;
  t.faults_injected <- 0;
  t.cm_max_consec_aborts <- 0;
  t.cm_starvation_events <- 0;
  t.clock_resyncs <- 0;
  t.redo_inserts <- 0;
  t.redo_hits <- 0;
  t.redo_skips <- 0;
  t.publish_cycles <- 0;
  t.wal_records <- 0;
  t.wal_bytes <- 0;
  t.wal_fsyncs <- 0;
  t.wal_skips <- 0;
  t.limbo_blocks <- 0;
  t.limbo_words <- 0;
  t.epoch_advances <- 0;
  t.reclaim_stalls <- 0;
  t.grace_waits <- 0;
  Array.fill t.shard_acquires 0 (Array.length t.shard_acquires) 0;
  Array.fill t.shard_conflicts 0 (Array.length t.shard_conflicts) 0;
  Hashtbl.reset t.conflict_pairs

let merge acc x =
  acc.commits <- acc.commits + x.commits;
  acc.aborts <- acc.aborts + x.aborts;
  acc.user_aborts <- acc.user_aborts + x.user_aborts;
  acc.nested_commits <- acc.nested_commits + x.nested_commits;
  acc.nested_aborts <- acc.nested_aborts + x.nested_aborts;
  acc.reads <- acc.reads + x.reads;
  acc.writes <- acc.writes + x.writes;
  acc.reads_elided_stack <- acc.reads_elided_stack + x.reads_elided_stack;
  acc.reads_elided_heap <- acc.reads_elided_heap + x.reads_elided_heap;
  acc.reads_elided_private <- acc.reads_elided_private + x.reads_elided_private;
  acc.reads_elided_static <- acc.reads_elided_static + x.reads_elided_static;
  acc.reads_forwarded <- acc.reads_forwarded + x.reads_forwarded;
  acc.writes_elided_stack <- acc.writes_elided_stack + x.writes_elided_stack;
  acc.writes_elided_heap <- acc.writes_elided_heap + x.writes_elided_heap;
  acc.writes_elided_private <-
    acc.writes_elided_private + x.writes_elided_private;
  acc.writes_elided_static <- acc.writes_elided_static + x.writes_elided_static;
  acc.waw_hits <- acc.waw_hits + x.waw_hits;
  acc.undo_entries <- acc.undo_entries + x.undo_entries;
  acc.validations <- acc.validations + x.validations;
  acc.lock_waits <- acc.lock_waits + x.lock_waits;
  acc.audit_reads_heap <- acc.audit_reads_heap + x.audit_reads_heap;
  acc.audit_reads_stack <- acc.audit_reads_stack + x.audit_reads_stack;
  acc.audit_reads_required <- acc.audit_reads_required + x.audit_reads_required;
  acc.audit_reads_other <- acc.audit_reads_other + x.audit_reads_other;
  acc.audit_writes_heap <- acc.audit_writes_heap + x.audit_writes_heap;
  acc.audit_writes_stack <- acc.audit_writes_stack + x.audit_writes_stack;
  acc.audit_writes_required <-
    acc.audit_writes_required + x.audit_writes_required;
  acc.audit_writes_other <- acc.audit_writes_other + x.audit_writes_other;
  acc.audit_static_violations <-
    acc.audit_static_violations + x.audit_static_violations;
  acc.tx_allocs <- acc.tx_allocs + x.tx_allocs;
  acc.tx_frees <- acc.tx_frees + x.tx_frees;
  acc.capture_summary_rejects <-
    acc.capture_summary_rejects + x.capture_summary_rejects;
  acc.capture_mru_hits <- acc.capture_mru_hits + x.capture_mru_hits;
  acc.capture_backend_probes <-
    acc.capture_backend_probes + x.capture_backend_probes;
  acc.capture_promotions <- acc.capture_promotions + x.capture_promotions;
  acc.capture_log_overflows <-
    acc.capture_log_overflows + x.capture_log_overflows;
  acc.capture_check_cycles <- acc.capture_check_cycles + x.capture_check_cycles;
  acc.capture_site_bypasses <-
    acc.capture_site_bypasses + x.capture_site_bypasses;
  acc.validations_skipped <- acc.validations_skipped + x.validations_skipped;
  acc.snapshot_extensions <- acc.snapshot_extensions + x.snapshot_extensions;
  acc.readonly_fast_commits <-
    acc.readonly_fast_commits + x.readonly_fast_commits;
  acc.clock_advances <- acc.clock_advances + x.clock_advances;
  acc.validation_cycles <- acc.validation_cycles + x.validation_cycles;
  acc.spin_aborts <- acc.spin_aborts + x.spin_aborts;
  acc.backoff_cycles <- acc.backoff_cycles + x.backoff_cycles;
  acc.fuel_exhaustions <- acc.fuel_exhaustions + x.fuel_exhaustions;
  acc.sandbox_aborts <- acc.sandbox_aborts + x.sandbox_aborts;
  acc.sandbox_bounds <- acc.sandbox_bounds + x.sandbox_bounds;
  acc.faults_injected <- acc.faults_injected + x.faults_injected;
  (* A per-thread maximum, not a flow count: merging takes the max. *)
  acc.cm_max_consec_aborts <- max acc.cm_max_consec_aborts x.cm_max_consec_aborts;
  acc.cm_starvation_events <- acc.cm_starvation_events + x.cm_starvation_events;
  acc.clock_resyncs <- acc.clock_resyncs + x.clock_resyncs;
  acc.redo_inserts <- acc.redo_inserts + x.redo_inserts;
  acc.redo_hits <- acc.redo_hits + x.redo_hits;
  acc.redo_skips <- acc.redo_skips + x.redo_skips;
  acc.publish_cycles <- acc.publish_cycles + x.publish_cycles;
  acc.wal_records <- acc.wal_records + x.wal_records;
  acc.wal_bytes <- acc.wal_bytes + x.wal_bytes;
  acc.wal_fsyncs <- acc.wal_fsyncs + x.wal_fsyncs;
  acc.wal_skips <- acc.wal_skips + x.wal_skips;
  (* Limbo depth is a per-thread high-water mark, like
     [cm_max_consec_aborts]: merging takes the max. *)
  acc.limbo_blocks <- max acc.limbo_blocks x.limbo_blocks;
  acc.limbo_words <- max acc.limbo_words x.limbo_words;
  acc.epoch_advances <- acc.epoch_advances + x.epoch_advances;
  acc.reclaim_stalls <- acc.reclaim_stalls + x.reclaim_stalls;
  acc.grace_waits <- acc.grace_waits + x.grace_waits;
  ensure_shards acc (Array.length x.shard_acquires);
  Array.iteri
    (fun i v -> acc.shard_acquires.(i) <- acc.shard_acquires.(i) + v)
    x.shard_acquires;
  Array.iteri
    (fun i v -> acc.shard_conflicts.(i) <- acc.shard_conflicts.(i) + v)
    x.shard_conflicts;
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
  + t.reads_elided_static

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
