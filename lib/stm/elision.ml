(* Capture elision (paper, Figure 2): the verdict of every barrier's
   capture check, static, stack, heap or private, behind the +fp site
   tier and the static shared-site filter; audit mode's classification;
   and capture-log insertion.  Writes [check_cost] and the scopes'
   capture logs. *)

open Descriptor

(* ------------------------------------------------------------------ *)
(* Capture analysis in barriers (paper, Figure 2)                      *)

(* Every check below returns its verdict as an [access_class] — constant
   constructors, so an immediate — and adds the cycles it spent to
   [check_cost]. *)

(* The per-class counter of an access. *)
let count_elided (st : Stats.t) ~is_write cls =
  match (is_write, cls) with
  | _, Instrumented | true, Elided_init (* reads only *) -> ()
  | false, Elided_static ->
      st.reads_elided_static <- st.reads_elided_static + 1
  | false, Elided_stack -> st.reads_elided_stack <- st.reads_elided_stack + 1
  | false, Elided_heap -> st.reads_elided_heap <- st.reads_elided_heap + 1
  | false, Elided_private ->
      st.reads_elided_private <- st.reads_elided_private + 1
  | false, Elided_init -> st.reads_elided_init <- st.reads_elided_init + 1
  | true, Elided_static ->
      st.writes_elided_static <- st.writes_elided_static + 1
  | true, Elided_stack ->
      st.writes_elided_stack <- st.writes_elided_stack + 1
  | true, Elided_heap -> st.writes_elided_heap <- st.writes_elided_heap + 1
  | true, Elided_private ->
      st.writes_elided_private <- st.writes_elided_private + 1

(* The price of the summary tier and, when active, the MRU tier.  With
   the MRU tier skipped (filter backend or <=1 block) an MRU hit can only
   come from an exact single-block envelope, where the MRU compare is
   against the same two words as the bounds compare: the summary price
   covers it. *)
let cache_tiers_cost log =
  Costs.capture_summary_check
  + if Alloc_log.mru_tier_active log then Costs.capture_mru_check else 0

(* One hierarchical heap capture check: classify the probe, charge the
   tier that answered, and account it.  Without fastpath the hierarchy
   degenerates to the bare backend probe at its usual price. *)
let heap_capture_check th log ~lo ~hi =
  let outcome = Alloc_log.probe log ~lo ~hi in
  let st = th.stats in
  let cost =
    match outcome with
    | Alloc_log.Summary_reject ->
        st.Stats.capture_summary_rejects <-
          st.Stats.capture_summary_rejects + 1;
        Costs.capture_summary_check
    | Alloc_log.Mru_hit ->
        st.Stats.capture_mru_hits <- st.Stats.capture_mru_hits + 1;
        cache_tiers_cost log
    | Alloc_log.Backend_hit | Alloc_log.Backend_miss ->
        st.Stats.capture_backend_probes <- st.Stats.capture_backend_probes + 1;
        (if Alloc_log.fastpath log then cache_tiers_cost log else 0)
        + Alloc_log.search_cost log
  in
  st.Stats.capture_check_cycles <- st.Stats.capture_check_cycles + cost;
  th.check_cost <- th.check_cost + cost;
  match outcome with
  | Alloc_log.Mru_hit | Alloc_log.Backend_hit -> Elided_heap
  | Alloc_log.Summary_reject | Alloc_log.Backend_miss -> Instrumented

let private_check th addr size =
  if Alloc_log.size th.private_log > 0 then begin
    th.check_cost <- th.check_cost + Alloc_log.search_cost th.private_log;
    if Alloc_log.contains th.private_log ~lo:addr ~hi:(addr + size) then
      Elided_private
    else Instrumented
  end
  else Instrumented

(* The runtime stack and heap capture checks of one access: a stack or
   heap elision, or [Instrumented]. *)
let capture_check tx addr size =
  let sc = tx.config.Config.scope in
  let scope = innermost tx in
  if sc.check_stack then tx.check_cost <- tx.check_cost + Costs.stack_check;
  if
    sc.check_stack
    && Tstack.in_live_range tx.stack ~from_sp:scope.start_sp addr size
  then Elided_stack
  else
    match scope.capture_log with
    | Some log when sc.check_heap ->
        heap_capture_check tx log ~lo:addr ~hi:(addr + size)
    | Some _ | None -> Instrumented

(* The elision verdict of one access, its check cycles left in
   [check_cost].  Runtime analysis under +fp puts the site tier first: a
   site whose checks rarely hit is bypassed, and its access takes the
   same path as an access outside the check scope — private-log check,
   then the full barrier.  That is sound because the full barrier is
   correct for any address, captured or not (see [Barrier.free] for the one
   hazard it had). *)
let try_elide tx addr size ~site ~is_write =
  let cfg = tx.config in
  tx.check_cost <- 0;
  match cfg.analysis with
  | Config.Compiler ->
      if Site.is_captured_static site then Elided_static
      else private_check tx addr size
  | Config.Baseline -> private_check tx addr size
  | Config.Runtime _ ->
      let sc = cfg.scope in
      let applies =
        (if is_write then sc.on_writes else sc.on_reads)
        && not (cfg.static_filter && Site.is_shared_static site)
      in
      if not applies then private_check tx addr size
      else begin
        if cfg.fastpath then tx.check_cost <- Costs.site_check;
        if cfg.fastpath && Site_tier.bypass tx.site_tier site then begin
          tx.stats.capture_site_bypasses <- tx.stats.capture_site_bypasses + 1;
          private_check tx addr size
        end
        else begin
          let cls = capture_check tx addr size in
          let captured = cls <> Instrumented in
          if cfg.fastpath then Site_tier.record tx.site_tier site ~hit:captured;
          if captured then cls else private_check tx addr size
        end
      end

(* Does a block the scope allocated (entries [0..k]) contain [lo, hi)? *)
let rec allocated_in scope ~lo ~hi k =
  k >= 0
  && ((scope.alloc_addrs.(k) <= lo
      && hi <= scope.alloc_addrs.(k) + scope.alloc_sizes.(k))
     || allocated_in scope ~lo ~hi (k - 1))

(* Audit-mode classification for Figure 8: the scope's own allocation
   record + the stack check decide captured-ness; [manual] sites are the
   paper's "required" estimate. *)
let audit_classify tx addr size ~site ~is_write =
  let scope = innermost tx in
  let st = tx.stats in
  let on_stack =
    Tstack.in_live_range tx.stack ~from_sp:scope.start_sp addr size
  in
  let on_heap =
    (not on_stack)
    && allocated_in scope ~lo:addr ~hi:(addr + size) (scope.n_allocs - 1)
  in
  let manual = (Site.meta site).Site.manual in
  if Site.is_captured_static site && not (on_stack || on_heap) then
    st.audit_static_violations <- st.audit_static_violations + 1;
  if is_write then
    if on_heap then st.audit_writes_heap <- st.audit_writes_heap + 1
    else if on_stack then st.audit_writes_stack <- st.audit_writes_stack + 1
    else if manual then st.audit_writes_required <- st.audit_writes_required + 1
    else st.audit_writes_other <- st.audit_writes_other + 1
  else if on_heap then st.audit_reads_heap <- st.audit_reads_heap + 1
  else if on_stack then st.audit_reads_stack <- st.audit_reads_stack + 1
  else if manual then st.audit_reads_required <- st.audit_reads_required + 1
  else st.audit_reads_other <- st.audit_reads_other + 1

(* Capture-log insertion with promotion/saturation accounting; used for
   fresh allocations and for folding nested scopes into their parent. *)
let capture_log_add th log ~lo ~hi =
  match Alloc_log.add log ~lo ~hi with
  | Alloc_log.Kept -> ()
  | Alloc_log.Promoted ->
      th.stats.Stats.capture_promotions <-
        th.stats.Stats.capture_promotions + 1;
      th.platform.consume Costs.capture_promote
  | Alloc_log.Dropped ->
      th.stats.Stats.capture_log_overflows <-
        th.stats.Stats.capture_log_overflows + 1
