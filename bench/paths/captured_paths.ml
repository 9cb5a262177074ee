open Captured_stm
module Alloc = Captured_tmem.Alloc
module Alloc_log = Captured_core.Alloc_log
module Site = Captured_core.Site

type t = {
  name : string;
  config : string;
  cycles : float;
  price : float;
  formula : string;
  counter : (string * (Stats.t -> int)) option;
  simulated : bool;
  prepare : Engine.world -> Txn.thread -> int -> unit;
}

let max_ops = 512

(* One site of each kind a path needs: a site the compiler proved
   captured, an init-only read site, and a site the +fp tier bypasses. *)
let captured_site = Site.declare ~write:false "paths.captured"
let init_site = Site.declare ~init_only:true ~write:false "paths.init_only"
let bypassed_site = Site.declare ~write:true "paths.bypassed"

let line = Orec.line_words

(* The first words of [k] lines of an array block, one orec each: line
   aligned, so [m] and [m + 1] are line-mates. *)
let lines w k =
  let cell = Alloc.alloc (Engine.global_arena w) (k * line) in
  assert (Orec.line_words_at (Engine.orecs w) cell = line);
  Array.init k (fun i -> cell + (i * line))

let read tx m = ignore (Txn.read tx m : int)
let write tx m = Txn.write tx m 1

(* [op x k] for each operation [k < n]: inside a transaction [x] is
   its [tx], in a bare row the thread. *)
let ops op x n =
  for k = 0 to n - 1 do
    op x k
  done

(* One transaction: [prefix tx], then [n] operations [op tx k]. *)
let txn ?(prefix = ignore) op th n =
  Txn.atomic th (fun tx ->
      prefix tx;
      ops op tx n)

(* Operation [k] is [op tx m] on the first word [m] of line [k], a fresh
   line each operation, after [prefix tx spare] on a line of its own. *)
let on_lines ?(prefix = fun _ _ -> ()) op w =
  let ls = lines w (max_ops + 1) in
  txn ~prefix:(fun tx -> prefix tx ls.(max_ops)) (fun tx k -> op tx ls.(k))

let block_words = 64

(* [op tx b] on a block [b] the transaction allocated (captured, so
   elided under a runtime analysis, or under the compiler analysis at a
   site it proved captured) and freed before commit. *)
let on_captured op _ th n =
  Txn.atomic th (fun tx ->
      let b = Txn.alloc tx block_words in
      Txn.write tx b 1;
      for _ = 1 to n do
        op tx b
      done;
      Txn.free tx b)

(* Each of [reread_lines] lines read at two line-mates [m] and [m + 1]
   (one read-log entry per line, naming the address read last), then
   re-reads pass by pass: [m + 1] again, forwarded from the entry, or
   alternately [m] and [m + 1], so that each names the address the entry
   does not and takes the line-mate path (map probe, data load, one orec
   load against the logged word). *)
let reread_lines = 64

let rereads ~forwarded w =
  let ls = lines w reread_lines in
  txn
    ~prefix:(fun tx -> Array.iter (fun m -> read tx m; read tx (m + 1)) ls)
    (fun tx k ->
      let pass = 1 + (k / reread_lines) in
      let d = if forwarded then 1 else (pass + 1) land 1 in
      read tx (ls.(k mod reread_lines) + d))

(* A write to the first word of each of [count] lines first, then
   [op tx m k]: operation [k] on line [m], [per_line] operations to a
   line, wrapping around after the last. *)
let after_writes ~count ?(per_line = 1) op w =
  let ls = lines w count in
  txn
    ~prefix:(fun tx -> Array.iter (write tx) ls)
    (fun tx k -> op tx ls.(k / per_line mod count) k)

(* The +fp site tier bypasses [bypassed_site] after one window of
   checks that never hit ([Site_tier.window] accesses to one word of a
   spare line, in the prefix); [op] then takes a fresh line at the site
   each operation, and one access in [Site_tier.sample_every] is still
   checked. *)
let at_bypassed_site op =
  on_lines op ~prefix:(fun tx spare ->
      for _ = 1 to Site_tier.window do
        op tx spare
      done)

let field name =
  let c = List.find (fun c -> c.Stats.name = name) Stats.counters in
  (name, c.Stats.get)

let row ~config ?counter ?(simulated = true) name ~cycles (price, formula)
    prepare =
  { name; config; cycles; price = float_of_int price; formula; counter;
    simulated; prepare }

(* The prices, in the model's terms. *)
let fresh_read =
  ( Costs.read_barrier + Costs.commit_per_read + Costs.validate_per_read,
    "read_barrier + commit_per_read + validate_per_read" )

let fresh_write =
  ( Costs.write_barrier_acquire + Costs.undo_log_entry + Costs.commit_per_orec,
    "write_barrier_acquire + undo_log_entry + commit_per_orec" )

let elided_fp =
  ( Costs.site_check + Costs.stack_check + Costs.capture_summary_check
    + Costs.direct_access,
    "site_check + stack_check + capture_summary_check + direct_access" )

(* A bypassed access pays the site check and the full barrier; the one
   in [sample_every] that is checked adds a stack check and a summary
   reject of the empty capture log. *)
let bypassed (cycles, formula) =
  let sampled = Costs.stack_check + Costs.capture_summary_check in
  ( float_of_int (Costs.site_check + cycles)
    +. (float_of_int sampled /. float_of_int Site_tier.sample_every),
    Printf.sprintf
      "site_check + %s + (stack_check + capture_summary_check) / %d" formula
      Site_tier.sample_every )

let bypassed_row name ~cycles price op =
  let price, formula = bypassed price in
  {
    name;
    config = "tree+fp";
    cycles;
    price;
    formula;
    counter =
      Some
        ( "capture_site_bypasses + capture_summary_rejects",
          fun s -> s.Stats.capture_site_bypasses + s.Stats.capture_summary_rejects );
    simulated = true;
    prepare = at_bypassed_site op;
  }

(* Each runtime backend without +fp: an access its capture check elides
   (a stack check, then a probe of a one-block log that hits), read and
   written, and a fresh read after the same checks miss an empty log. *)
let backend_rows (b, captured, failed) =
  let config = Alloc_log.backend_name b in
  let one_block = Alloc_log.create b in
  ignore (Alloc_log.add one_block ~lo:(1 lsl 20) ~hi:((1 lsl 20) + block_words)
           : Alloc_log.added);
  let checked = "stack_check + Alloc_log.search_cost" in
  let hit =
    ( Costs.stack_check + Alloc_log.search_cost one_block + Costs.direct_access,
      checked ^ " + direct_access" )
  in
  let name what = what ^ " (" ^ config ^ ")" in
  [
    row (name "read captured") ~config ~counter:(field "reads_elided_heap")
      ~cycles:captured hit (on_captured read);
    row (name "write captured") ~config ~counter:(field "writes_elided_heap")
      ~cycles:captured hit (on_captured write);
    row (name "read after failed check") ~config
      ~counter:(field "capture_backend_probes") ~cycles:failed
      ( Costs.stack_check
        + Alloc_log.search_cost (Alloc_log.create b)
        + fst fresh_read,
        checked ^ " + read fresh" )
      (on_lines read);
  ]

(* A fast-path tree log of [probe_blocks] 32-word blocks 64 words apart.
   Probes below its envelope are summary rejects; probes into the gaps
   pass the summary, miss the MRU block and take the tree (a miss leaves
   the MRU entry as it was). *)
let probe_blocks = 8

let probes outcome at =
  let base = 1 lsl 20 in
  let log = Alloc_log.create ~fastpath:true Alloc_log.Tree in
  for k = 0 to probe_blocks - 1 do
    ignore (Alloc_log.add log ~lo:(base + (64 * k)) ~hi:(base + (64 * k) + 32)
             : Alloc_log.added)
  done;
  let at k = at base + (64 * (k mod (probe_blocks - 1))) in
  assert (Alloc_log.probe log ~lo:(at 1) ~hi:(at 1 + 1) = outcome);
  ( log,
    fun _ ->
      ops (fun _ k ->
          ignore
            (Sys.opaque_identity (Alloc_log.probe log ~lo:(at k) ~hi:(at k + 1))))
  )

let summary_reject = probes Alloc_log.Summary_reject (fun _ -> 0)
let backend_probe = probes Alloc_log.Backend_miss (fun base -> base + 40)

(* A native lock-wait spin: load the orec, find it locked (here by a
   thread that never comes), relax. *)
let lock_spins w =
  let orecs = Engine.orecs w in
  assert (Orec.try_lock orecs 0 ~owner:1 ~expected:(Orec.get orecs 0));
  let platform = Captured_sim.Platform.native in
  ops (fun _ _ -> if Orec.is_locked (Orec.get orecs 0) then platform.yield ())

let all =
  [
    row "read raw (Txn.raw_read)" ~config:"baseline" ~cycles:1.
      (Costs.direct_access, "direct_access")
      (fun w ->
        let ls = lines w max_ops in
        ops (fun th k -> ignore (Txn.raw_read th ls.(k) : int)));
    row "read fresh" ~config:"baseline" ~cycles:32. fresh_read (on_lines read);
    row "read line-mate" ~config:"baseline" ~cycles:12. ~counter:(field "reads_line_mate")
      (Costs.read_owned, "read_owned")
      (rereads ~forwarded:false);
    row "read forwarded" ~config:"baseline" ~cycles:12. ~counter:(field "reads_forwarded")
      (Costs.read_owned, "read_owned")
      (rereads ~forwarded:true);
    row "read elided (compiler, static)" ~config:"compiler" ~cycles:1.
      ~counter:(field "reads_elided_static")
      (Costs.direct_access, "direct_access")
      (fun w ->
        Site.set_captured captured_site;
        on_captured
          (fun tx b -> ignore (Txn.read_at ~site:captured_site tx b : int))
          w);
    row "read init-only (Site ~init_only)" ~config:"baseline" ~cycles:1.
      ~counter:(field "reads_elided_init")
      (Costs.direct_access, "direct_access")
      (on_lines (fun tx m -> ignore (Txn.read_at ~site:init_site tx m : int)));
    row "read init-only (+lazy)" ~config:"tree+fp+lazy" ~cycles:2.
      ~counter:(field "reads_elided_init")
      ( Costs.redo_summary_check + Costs.direct_access,
        "redo_summary_check + direct_access" )
      (on_lines (fun tx m -> ignore (Txn.read_at ~site:init_site tx m : int)));
    row "read elided (tree+fp, check included)" ~config:"tree+fp" ~cycles:6.
      ~counter:(field "reads_elided_heap") elided_fp (on_captured read);
    row "read-for-write" ~config:"baseline" ~cycles:51. ~counter:(field "rfw_acquires")
      ( Costs.write_barrier_acquire + Costs.commit_per_orec,
        "write_barrier_acquire + commit_per_orec" )
      (on_lines (fun tx m ->
           ignore (Txn.read_for_write_at ~site:Site.anonymous_read tx m : int)));
    row "write fresh" ~config:"baseline" ~cycles:61. ~counter:(field "orec_acquires")
      fresh_write (on_lines write);
    row "write owned (line-mate)" ~config:"baseline" ~cycles:26.
      ( Costs.write_barrier_owned + Costs.undo_log_entry,
        "write_barrier_owned + undo_log_entry" )
      (after_writes
         ~count:((max_ops + line - 2) / (line - 1))
         ~per_line:(line - 1)
         (fun tx m k -> write tx (m + 1 + (k mod (line - 1)))));
    row "read owned (line-mate written)" ~config:"baseline" ~cycles:12.
      (Costs.read_owned, "read_owned")
      (after_writes ~count:reread_lines ~per_line:(line - 1) (fun tx m k ->
           read tx (m + 1 + (k mod (line - 1)))));
    row "write rewrite (write-after-write)" ~config:"baseline" ~cycles:21.
      ~counter:(field "waw_hits")
      (Costs.write_barrier_owned + Costs.waw_hit, "write_barrier_owned + waw_hit")
      (after_writes ~count:reread_lines (fun tx m _ -> write tx m));
    row "write rewrite (nested scope)" ~config:"baseline" ~cycles:26.
      ~counter:(field "undo_entries")
      ( Costs.write_barrier_owned + Costs.undo_log_entry,
        "write_barrier_owned + undo_log_entry" )
      (fun w ->
        let ls = lines w max_ops in
        fun th n ->
          Txn.atomic th (fun tx ->
              Array.iter (write tx) ls;
              Txn.atomic th (fun tx -> ops (fun tx k -> write tx ls.(k)) tx n)));
    row "write elided (tree+fp, check included)" ~config:"tree+fp" ~cycles:6.
      ~counter:(field "writes_elided_heap") elided_fp (on_captured write);
    bypassed_row "read at a bypassed site (tree+fp)" ~cycles:33.25 fresh_read
      (fun tx m -> ignore (Txn.read_at ~site:bypassed_site tx m : int));
    bypassed_row "write at a bypassed site (tree+fp)" ~cycles:62.25
      fresh_write
      (fun tx m -> Txn.write_at ~site:bypassed_site tx m 1);
    row "read-for-write, then write (+lazy)" ~config:"baseline+lazy" ~cycles:74.
      ~counter:(field "rfw_acquires")
      ( (2 * Costs.redo_summary_check) + Costs.write_barrier_acquire
        + Costs.commit_per_orec + Costs.redo_insert + Costs.publish_per_entry,
        "2 * redo_summary_check + write_barrier_acquire + commit_per_orec + \
         redo_insert + publish_per_entry" )
      (on_lines (fun tx m ->
           Txn.write tx m
             (Txn.read_for_write_at ~site:Site.anonymous_read tx m + 1)));
  ]
  @ List.map
      (fun config ->
        row
          ("write, read back and rewrite (" ^ config ^ ")")
          ~config ~counter:(field "redo_hits") ~cycles:67.
          ( (3 * Costs.redo_summary_check) + Costs.redo_insert
            + (2 * Costs.redo_lookup) + Costs.waw_hit + Costs.commit_acquire
            + Costs.publish_per_entry + Costs.commit_per_orec,
            "3 * redo_summary_check + redo_insert + 2 * redo_lookup + waw_hit \
             + commit_acquire + publish_per_entry + commit_per_orec" )
          (* A write to a spare line makes the run with no operations a
             writer too: under +tv a read-only commit skips the clock. *)
          (on_lines ~prefix:write (fun tx m ->
               write tx m;
               Txn.write tx m (Txn.read tx m + 1))))
      [ "baseline+lazy"; "baseline+tv+lazy" ]
  @ [
      row "write captured (tree+fp+lazy)" ~config:"tree+fp+lazy" ~cycles:7.
        ~counter:(field "redo_skips")
        ( Costs.redo_summary_check + fst elided_fp,
          "redo_summary_check + " ^ snd elided_fp )
        (on_captured write);
    ]
  @ List.concat_map backend_rows
      Alloc_log.[ (Tree, 8., 37.); (Array, 6., 36.); (Filter, 7., 38.) ]
  @ [
      row "capture summary reject" ~config:"baseline" ~cycles:2. ~simulated:false
        (Costs.capture_summary_check, "capture_summary_check")
        (snd summary_reject);
      row
        (Printf.sprintf "capture backend probe (tree, %d blocks)" probe_blocks)
        ~config:"baseline" ~simulated:false ~cycles:15.
        ( Costs.capture_summary_check + Costs.capture_mru_check
          + Alloc_log.search_cost (fst backend_probe),
          "capture_summary_check + capture_mru_check + Alloc_log.search_cost" )
        (snd backend_probe);
      row "lock-spin step" ~config:"baseline" ~cycles:4. ~simulated:false
        (Costs.lock_spin, "lock_spin") lock_spins;
    ]

let find name = List.find (fun r -> r.name = name) all

let setup r =
  let w =
    Engine.create ~nthreads:1 (Result.get_ok (Config.of_string r.config))
  in
  (w, r.prepare w)
