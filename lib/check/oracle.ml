module Txn = Captured_stm.Txn

type strictness = Committed_only | All_attempts

type violation = { kind : string; tid : int; seq : int; detail : string }

let violation_to_string v =
  Printf.sprintf "[%s] thread %d at event %d: %s" v.kind v.tid v.seq v.detail

exception Found of violation

let fail ~kind ~tid ~seq detail = raise (Found { kind; tid; seq; detail })

(* Committed-state value of one cell: known, or freshly (re)allocated and
   never initialised — a wildcard that matches any observation. *)
type cell = Val of int | Fresh

(* One in-flight transaction attempt, replayed from its events. *)
type attempt = {
  begin_seq : int;
  first_reads : (int, int * int) Hashtbl.t; (* addr -> value, seq *)
  mutable pending : (int * int * bool) list; (* newest first: addr, value, elided *)
  mutable pending_n : int;
  mutable marks : (int * int) list;
      (* (pending_n, freed_n) at each open nested scope *)
  mutable owned : (int * int) list; (* [lo, hi) alloc/alloca ranges *)
  mutable freed : int list;
      (* deferred frees (addresses this attempt did not allocate),
         newest first; they take effect only if the attempt commits *)
  mutable freed_n : int;
  locked : (int, unit) Hashtbl.t;
      (* Index of each orec this attempt write-locked.  A read of ANY
         address mapping to a locked orec — the written address itself,
         a line-mate, or a hash-collided line — takes the owned fast
         path: memory access with no validation.  Partial aborts
         roll pending writes back but KEEP the locks (txn.ml keeps
         acquired orecs through nested aborts), so those reads can
         legally observe states newer than the snapshot; they are outside
         every consistency rule. *)
  mutable deferred : violation option;
      (* A read inconsistency observed mid-attempt that is only a
         violation if the attempt commits (zombie reads in attempts the
         STM later aborts are legal under [Committed_only]). *)
}

let new_attempt seq =
  {
    begin_seq = seq;
    first_reads = Hashtbl.create 16;
    pending = [];
    pending_n = 0;
    marks = [];
    owned = [];
    freed = [];
    freed_n = 0;
    locked = Hashtbl.create 8;
    deferred = None;
  }

let own_pending a addr =
  let rec go = function
    | [] -> None
    | (ad, v, _) :: rest -> if ad = addr then Some v else go rest
  in
  go a.pending

let in_owned a addr =
  List.exists (fun (lo, hi) -> addr >= lo && addr < hi) a.owned

let check ?(strictness = Committed_only) ?(index_of = fun (a : int) -> a)
    ?(lazy_mode = false) ?(reclaim = false) ~initial ~final ~history ~verify
    () =
  (* Per-address committed-value timeline, newest entry first.  An address
     absent from the table has held its initial value throughout. *)
  let timeline : (int, (int * cell) list ref) Hashtbl.t =
    Hashtbl.create 256
  in
  let allocated : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  (* Reclamation model ([reclaim]): requested sizes from allocation
     events; words covered by committed deferred frees and not yet
     reused ([freed_words] : word -> freeing commit seq); and words
     whose freed block a later allocation recarved ([recarved], same
     payload).  A read of a recarved word by an attempt that began
     before the free committed is a use-after-free: the allocator
     rewrote the header and zeroed the payload underneath a pointer
     obtained before the free, with no orec bump for validation to
     catch.  Correct EBR makes the rule unreachable — reuse is held in
     limbo until every such attempt is provably gone. *)
  let sizes : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let freed_words : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let recarved : (int, int) Hashtbl.t = Hashtbl.create 64 in
  (* Init-only declarations: each word read at an init-only site since
     its block's last allocation, with the first such read's instant.
     A write to one, other than by the attempt that allocated its
     block, breaks the declaration the unbarriered read relied on. *)
  let init_read : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let check_init_write ~tid ~seq addr value =
    match Hashtbl.find_opt init_read addr with
    | Some rseq ->
        fail ~kind:"init-only-rewrite" ~tid ~seq
          (Printf.sprintf
             "addr %d was read at an init-only site at %d, since its \
              block's last allocation, and is now overwritten with %d"
             addr rseq value)
    | None -> ()
  in
  let value_at addr t =
    match Hashtbl.find_opt timeline addr with
    | None -> Val (initial addr)
    | Some l ->
        let rec go = function
          | [] -> Val (initial addr)
          | (s, v) :: rest -> if s <= t then v else go rest
        in
        go !l
  in
  let append addr seq st =
    match Hashtbl.find_opt timeline addr with
    | Some l -> l := (seq, st) :: !l
    | None -> Hashtbl.add timeline addr (ref [ (seq, st) ])
  in
  (* Opacity's per-attempt condition: some instant t in [begin, end] at
     which every first read matches the committed state.  Candidate
     instants are the begin plus every commit that touched a read address
     inside the window (the committed state is constant in between). *)
  let snapshot_exists a ~end_seq =
    let reads =
      Hashtbl.fold (fun addr (v, s) acc -> (addr, v, s) :: acc) a.first_reads []
    in
    reads = []
    ||
    let consistent_at t =
      List.for_all
        (fun (addr, v, _) ->
          match value_at addr t with Fresh -> true | Val x -> x = v)
        reads
    in
    consistent_at a.begin_seq
    || List.exists
         (fun (addr, _, _) ->
           match Hashtbl.find_opt timeline addr with
           | None -> false
           | Some l ->
               List.exists
                 (fun (s, _) ->
                   s > a.begin_seq && s <= end_seq && consistent_at s)
                 !l)
         reads
  in
  let describe_reads a =
    let rs =
      Hashtbl.fold
        (fun addr (v, s) acc -> Printf.sprintf "%d=%d@%d" addr v s :: acc)
        a.first_reads []
    in
    String.concat " " (List.sort compare rs)
  in
  let live : (int, attempt) Hashtbl.t = Hashtbl.create 8 in
  let on_event ({ seq; tid; ev } : History.entry) =
    match ev with
    | Txn.Ev_begin _ -> Hashtbl.replace live tid (new_attempt seq)
    | Txn.Ev_scope_begin -> (
        match Hashtbl.find_opt live tid with
        | Some a -> a.marks <- (a.pending_n, a.freed_n) :: a.marks
        | None -> ())
    | Txn.Ev_scope_commit -> (
        match Hashtbl.find_opt live tid with
        | Some a -> (
            match a.marks with m :: r -> ignore m; a.marks <- r | [] -> ())
        | None -> ())
    | Txn.Ev_scope_abort -> (
        (* Partial abort: the child scope's pending writes are rolled
           back; reads stay in the prefix (the runtime keeps them logged
           and validated too). *)
        match Hashtbl.find_opt live tid with
        | Some a -> (
            match a.marks with
            | (m, fm) :: r ->
                let rec drop l n to_n =
                  if n <= to_n then l
                  else
                    match l with [] -> [] | _ :: tl -> drop tl (n - 1) to_n
                in
                a.pending <- drop a.pending a.pending_n m;
                a.pending_n <- m;
                (* The scope's deferred frees are cancelled with it. *)
                a.freed <- drop a.freed a.freed_n fm;
                a.freed_n <- fm;
                a.marks <- r
            | [] -> ())
        | None -> ())
    | Txn.Ev_read { addr; value; cls } -> (
        if cls = Txn.Elided_init && not (Hashtbl.mem init_read addr) then
          Hashtbl.add init_read addr seq;
        match Hashtbl.find_opt live tid with
        | None -> ()
        | Some a -> (
            match own_pending a addr with
            | Some w ->
                if w <> value then
                  fail ~kind:"read-own-write" ~tid ~seq
                    (Printf.sprintf "addr %d read %d, own write was %d" addr
                       value w)
            | None ->
                (* Memory safety first: a read of a word that was freed
                   by a commit newer than this attempt's begin and then
                   recarved by a fresh allocation dereferences reclaimed
                   memory.  The reader is usually a doomed zombie, so the
                   rule fires immediately in every strictness mode —
                   commit-gating would hide exactly the dangerous case. *)
                (if reclaim && not (in_owned a addr) then
                   match Hashtbl.find_opt recarved addr with
                   | Some fseq when a.begin_seq < fseq ->
                       fail ~kind:"use-after-free" ~tid ~seq
                         (Printf.sprintf
                            "addr %d was freed by the commit at %d and \
                             recarved by a later allocation, yet this \
                             attempt (begun at %d) still read it — a stale \
                             pointer survived reclamation"
                            addr fseq a.begin_seq)
                   | _ -> ());
                (* Elided reads of this attempt's own allocations are
                   thread-private by construction (that is the property
                   being tested); private-annotated data is outside the
                   STM's contract.  Everything else is held to shared-read
                   rules — including elided reads that target memory this
                   attempt did NOT allocate, which is how a capture-
                   analysis bug surfaces. *)
                let skip =
                  Hashtbl.mem a.locked (index_of addr)
                  (* a self-locked orec (possibly via a line-mate): the
                     owned fast path returns memory with no validation *)
                  ||
                  match cls with
                  | Txn.Elided_private -> true
                  | Txn.Instrumented -> false
                  | Txn.Elided_static | Txn.Elided_stack | Txn.Elided_heap
                  | Txn.Elided_init ->
                      in_owned a addr
                in
                if not skip then begin
                  match Hashtbl.find_opt a.first_reads addr with
                  | Some (v0, s0) ->
                      if v0 <> value then begin
                        (* Per-read validation makes this impossible in a
                           correct run, so report at once under
                           [All_attempts]; the baseline only promises the
                           attempt won't COMMIT like this, so hold the
                           verdict until its commit event. *)
                        let v =
                          {
                            kind = "repeat-read";
                            tid;
                            seq;
                            detail =
                              Printf.sprintf
                                "addr %d read %d, first read saw %d at %d"
                                addr value v0 s0;
                          }
                        in
                        if strictness = All_attempts then raise (Found v)
                        else if a.deferred = None then a.deferred <- Some v
                      end
                  | None -> Hashtbl.add a.first_reads addr (value, seq)
                end))
    | Txn.Ev_write { addr; value; cls } -> (
        match Hashtbl.find_opt live tid with
        | None -> ()
        | Some a ->
            if not (in_owned a addr) then check_init_write ~tid ~seq addr value;
            if cls = Txn.Elided_private then
              (* Private-annotated writes are never rolled back. *)
              append addr seq (Val value)
            else begin
              (* Lazy versioning buffers instrumented writes without
                 acquiring anything until commit, so no self-locked-orec
                 read exemption exists during execution — the oracle is
                 strictly stricter there, matching the engine.  (Read-
                 own-write is covered by [own_pending] either way.) *)
              if cls = Txn.Instrumented && not lazy_mode then
                Hashtbl.replace a.locked (index_of addr) ();
              a.pending <- (addr, value, cls <> Txn.Instrumented) :: a.pending;
              a.pending_n <- a.pending_n + 1
            end)
    | Txn.Ev_alloc { addr; size } | Txn.Ev_alloca { addr; size } -> (
        for i = addr to addr + size - 1 do
          Hashtbl.replace allocated i ();
          Hashtbl.remove init_read i
        done;
        if reclaim then begin
          Hashtbl.replace sizes addr size;
          (* Reuse of freed words: from here on, a read of these words
             by an attempt older than the free is a use-after-free. *)
          for i = addr to addr + size - 1 do
            match Hashtbl.find_opt freed_words i with
            | Some fseq ->
                Hashtbl.replace recarved i fseq;
                Hashtbl.remove freed_words i
            | None -> ()
          done
        end;
        match Hashtbl.find_opt live tid with
        | None -> ()
        | Some a ->
            a.owned <- (addr, addr + size) :: a.owned;
            (* Recycled cells hold garbage until initialised: wildcard. *)
            for i = addr to addr + size - 1 do
              append i seq Fresh
            done)
    | Txn.Ev_free { addr } -> (
        (* Only deferred frees matter for reclamation: a free netted
           against this attempt's own allocation releases a block no
           other thread ever saw committed.  [in_owned] over-approximates
           the engine's innermost-scope netting, which errs toward
           silence, never toward a false alarm. *)
        (* Once freed, the block's first word holds allocator links (and a
           recycler may carve it) — its liveness is no longer tracked, so
           exclude it from the final-state replay like any recycled cell. *)
        Hashtbl.replace allocated addr ();
        match Hashtbl.find_opt live tid with
        | Some a when reclaim && not (in_owned a addr) ->
            a.freed <- addr :: a.freed;
            a.freed_n <- a.freed_n + 1
        | _ -> ())
    | Txn.Ev_commit -> (
        match Hashtbl.find_opt live tid with
        | None -> ()
        | Some a ->
            (match a.deferred with Some v -> raise (Found v) | None -> ());
            if not (snapshot_exists a ~end_seq:seq) then
              fail ~kind:"no-snapshot" ~tid ~seq
                (Printf.sprintf "committed reads fit no instant in [%d,%d]: %s"
                   a.begin_seq seq (describe_reads a));
            (* A committed writer validated with its write locks held, so
               a first read of an address it also wrote (non-elided writes
               are locked through commit) must still be the committed
               value now — otherwise an update was lost. *)
            List.iter
              (fun (addr, _, elided) ->
                if not elided then
                  match Hashtbl.find_opt a.first_reads addr with
                  | None -> ()
                  | Some (v, rs) -> (
                      match value_at addr (seq - 1) with
                      | Fresh -> ()
                      | Val cur ->
                          if cur <> v then
                            fail ~kind:"stale-locked-read" ~tid ~seq
                              (Printf.sprintf
                                 "addr %d: read %d at %d, but %d was \
                                  committed before this commit (lost update)"
                                 addr v rs cur)))
              a.pending;
            List.iter
              (fun (addr, v, _) -> append addr seq (Val v))
              (List.rev a.pending);
            (* Deferred frees take effect now: the block's words become
               reusable, stamped with this commit's instant. *)
            if reclaim then
              List.iter
                (fun addr ->
                  let size =
                    match Hashtbl.find_opt sizes addr with
                    | Some s -> Captured_tmem.Alloc.carve_size s
                    | None -> 1 (* size unknown (pre-history block) *)
                  in
                  for i = addr to addr + size - 1 do
                    Hashtbl.replace freed_words i seq;
                    Hashtbl.remove recarved i
                  done)
                a.freed;
            Hashtbl.remove live tid)
    | Txn.Ev_abort _ -> (
        match Hashtbl.find_opt live tid with
        | None -> ()
        | Some a ->
            (* Under per-read validation (+tv) even aborted attempts
               must be opaque; the baseline's fuel-forced validation admits
               bounded zombie windows, so only committed attempts are
               held to the snapshot rule there. *)
            if strictness = All_attempts && not (snapshot_exists a ~end_seq:seq)
            then
              fail ~kind:"no-snapshot-aborted" ~tid ~seq
                (Printf.sprintf "aborted reads fit no instant in [%d,%d]: %s"
                   a.begin_seq seq (describe_reads a));
            Hashtbl.remove live tid)
    | Txn.Ev_raw_write { addr; value } ->
        check_init_write ~tid ~seq addr value;
        append addr seq (Val value)
  in
  try
    History.iter history on_event;
    (* Final-state replay: every address the committed history last set to
       a known value must hold it in memory — skipping allocator-recycled
       addresses, whose liveness the oracle does not track. *)
    Hashtbl.iter
      (fun addr l ->
        if not (Hashtbl.mem allocated addr) then
          match !l with
          | (s, Val v) :: _ ->
              let f = final addr in
              if f <> v then
                fail ~kind:"final-state" ~tid:(-1) ~seq:s
                  (Printf.sprintf
                     "addr %d holds %d, committed history says %d" addr f v)
          | _ -> ())
      timeline;
    (match verify () with
    | Ok () -> ()
    | Error m -> fail ~kind:"app-verify" ~tid:(-1) ~seq:(History.length history) m);
    None
  with Found v -> Some v

(* ------------------------------------------------------------------ *)
(* Recovery oracle (durable transactions, DESIGN.md §13).

   Replays the recorded history into the sequence of *durable items* the
   WAL device must contain — nonempty commit records in commit order,
   raw/private stores at their barrier instants (the engine charges all
   WAL cost before touching the device, so there is no scheduling point
   between an append and its event: log order provably equals history
   order) — and asserts the recovered state is a *prefix-consistent*
   image: some cut M of that stream such that everything before M is
   present, nothing after M is visible, and every acknowledged (fsynced)
   item lies before M. *)

type recovery_facts = {
  rf_floor_seq : int;  (** commits already inside the restored snapshot *)
  rf_applied_seqs : int list;  (** commit seqs replayed, in log order *)
  rf_floor_raws : int;
  rf_raws_applied : int;
  rf_synced_seq : int;  (** highest commit seq acknowledged pre-crash *)
  rf_synced_raws : int;
  rf_freed : (int * int * int) list;
      (** (tid, addr, carved size) of each free recovery replayed *)
}

(* One effect of a (potentially) committing attempt, mirrored from the
   engine's scope tracking: instrumented writes feed the commit record's
   write set; heap/static-elided writes ride inside allocation payload
   images; allocations and deferred frees are logged structurally.
   Stack-elided writes are transient by definition and appear nowhere. *)
type ralloc = { a_addr : int; a_size : int; mutable a_netted : bool }

type reff =
  | RW of { w_addr : int; w_value : int; w_cls : Txn.access_class }
  | RA of ralloc
  | RF of { f_addr : int; f_size : int; f_counts : bool }
      (* [f_counts]: a free the commit record carries (deferred free);
         false for a free netted against this scope's own allocation,
         which the engine performs immediately and never logs. *)

type sitem = SRaw of int * int | SCommit of reff list

let check_recovery ~initial ~recovered ~history ~facts () =
  let kmax = facts.rf_floor_seq + List.length facts.rf_applied_seqs in
  let raws_total = facts.rf_floor_raws + facts.rf_raws_applied in
  try
    (* Replayed commit seqs must continue the snapshot floor without a
       gap or reordering: the log is applied front to back. *)
    List.iteri
      (fun i s ->
        let want = facts.rf_floor_seq + i + 1 in
        if s <> want then
          fail ~kind:"recovery-gap" ~tid:(-1) ~seq:i
            (Printf.sprintf
               "replayed commit seq %d where %d was expected (floor %d)" s
               want facts.rf_floor_seq))
      facts.rf_applied_seqs;
    (* Durability: an acknowledged item survives every crash. *)
    if kmax < facts.rf_synced_seq then
      fail ~kind:"recovery-lost-commit" ~tid:(-1) ~seq:kmax
        (Printf.sprintf
           "commit seq %d was acknowledged (fsynced) but recovery stopped \
            at %d"
           facts.rf_synced_seq kmax);
    if raws_total < facts.rf_synced_raws then
      fail ~kind:"recovery-lost-raw" ~tid:(-1) ~seq:raws_total
        (Printf.sprintf
           "%d raw stores were acknowledged but recovery replayed %d"
           facts.rf_synced_raws raws_total);
    (* Walk the history, mirroring the engine's per-scope effect
       tracking, into the durable-item stream. *)
    let live : (int, reff list list) Hashtbl.t = Hashtbl.create 8 in
    let sizes : (int, int) Hashtbl.t = Hashtbl.create 64 in
    List.iter
      (fun (_, addr, size) -> Hashtbl.replace sizes addr size)
      facts.rf_freed;
    let stream = ref [] in
    let push_eff tid e =
      match Hashtbl.find_opt live tid with
      | Some (scope :: rest) -> Hashtbl.replace live tid ((e :: scope) :: rest)
      | _ -> ()
    in
    let on_event ({ seq = _; tid; ev } : History.entry) =
      match ev with
      | Txn.Ev_begin _ -> Hashtbl.replace live tid [ [] ]
      | Txn.Ev_scope_begin -> (
          match Hashtbl.find_opt live tid with
          | Some scopes -> Hashtbl.replace live tid ([] :: scopes)
          | None -> ())
      | Txn.Ev_scope_commit -> (
          match Hashtbl.find_opt live tid with
          | Some (child :: parent :: rest) ->
              Hashtbl.replace live tid ((child @ parent) :: rest)
          | _ -> ())
      | Txn.Ev_scope_abort -> (
          match Hashtbl.find_opt live tid with
          | Some (_ :: rest) -> Hashtbl.replace live tid rest
          | _ -> ())
      | Txn.Ev_write { addr; value; cls } -> (
          match cls with
          | Txn.Elided_private ->
              (* Logged raw at the barrier; survives aborts. *)
              stream := SRaw (addr, value) :: !stream
          | Txn.Elided_stack | Txn.Elided_init (* reads only *) -> ()
          | Txn.Instrumented | Txn.Elided_heap | Txn.Elided_static ->
              push_eff tid (RW { w_addr = addr; w_value = value; w_cls = cls })
          )
      | Txn.Ev_alloc { addr; size } ->
          Hashtbl.replace sizes addr size;
          push_eff tid (RA { a_addr = addr; a_size = size; a_netted = false })
      | Txn.Ev_alloca _ -> ()
      | Txn.Ev_free { addr } -> (
          match Hashtbl.find_opt live tid with
          | Some (scope :: _) -> (
              (* The engine nets a free against the innermost scope's own
                 allocations (newest first); a netted pair is freed
                 immediately and never reaches the commit record. *)
              let rec net = function
                | [] -> None
                | RA a :: _ when a.a_addr = addr && not a.a_netted -> Some a
                | _ :: tl -> net tl
              in
              match net scope with
              | Some a ->
                  a.a_netted <- true;
                  push_eff tid
                    (RF { f_addr = addr; f_size = a.a_size; f_counts = false })
              | None ->
                  let size =
                    match Hashtbl.find_opt sizes addr with
                    | Some s -> s
                    | None -> -1
                  in
                  push_eff tid (RF { f_addr = addr; f_size = size; f_counts = true }))
          | _ -> ())
      | Txn.Ev_commit -> (
          match Hashtbl.find_opt live tid with
          | Some scopes ->
              let effs = List.rev (List.concat scopes) in
              (* Mirrors the engine's skip-empty-record decision: a
                 record exists iff a surviving instrumented write, a
                 surviving allocation or a deferred free does. *)
              let nonempty =
                List.exists
                  (function
                    | RW { w_cls = Txn.Instrumented; _ } -> true
                    | RA a -> not a.a_netted
                    | RF f -> f.f_counts
                    | _ -> false)
                  effs
              in
              if nonempty then stream := SCommit effs :: !stream;
              Hashtbl.remove live tid
          | None -> ())
      | Txn.Ev_abort _ -> Hashtbl.remove live tid
      | Txn.Ev_raw_write { addr; value } ->
          stream := SRaw (addr, value) :: !stream
      | Txn.Ev_read _ -> ()
    in
    History.iter history on_event;
    let stream = List.rev !stream in
    (* Attempts still in flight at the crash: their instrumented writes
       must NOT be visible in the recovered image (no partial
       transaction) — recovery rebuilt state from the log alone, so any
       of them showing up is a replay bug. *)
    let inflight : (int, unit) Hashtbl.t = Hashtbl.create 32 in
    Hashtbl.iter
      (fun _tid scopes ->
        List.iter
          (List.iter (function
            | RW { w_cls = Txn.Instrumented; w_addr; _ } ->
                Hashtbl.replace inflight w_addr ()
            | _ -> ()))
          scopes)
      live;
    (* Expected recovered state: apply the stream's first M items over
       the initial image, where M is the cut recovery claims.  Cells
       inside allocated or freed extents are wildcards ([Fresh]) until a
       durable write pins them: recycled blocks carry garbage and freed
       blocks carry allocator links, both faithfully replayed via
       payload images but outside the oracle's value model. *)
    let expected : (int, cell) Hashtbl.t = Hashtbl.create 256 in
    (* Block liveness at the cut: addr -> (carved size, live?).  Fed by
       the same replay; used below to hold the recovered image to the
       reclamation layer's crash invariant (allocated headers for blocks
       the durable prefix leaves live, freed headers for blocks it
       durably freed). *)
    let blocks : (int, int * bool) Hashtbl.t = Hashtbl.create 32 in
    let apply_commit effs =
      let own = Hashtbl.create 8 in
      List.iter
        (function
          | RA a ->
              if not a.a_netted then
                Hashtbl.replace blocks a.a_addr
                  (Captured_tmem.Alloc.carve_size a.a_size, true);
              for i = a.a_addr to a.a_addr + a.a_size - 1 do
                Hashtbl.replace expected i Fresh;
                Hashtbl.replace own i ()
              done
          | RW w -> (
              match w.w_cls with
              | Txn.Instrumented ->
                  Hashtbl.replace expected w.w_addr (Val w.w_value)
              | Txn.Elided_heap | Txn.Elided_static ->
                  (* Covered by this commit's own allocation images; an
                     elision that strays outside them (compiler-proved
                     site hitting the stack, say) is durably
                     unverifiable — wildcard, never a false alarm. *)
                  if Hashtbl.mem own w.w_addr then
                    Hashtbl.replace expected w.w_addr (Val w.w_value)
                  else Hashtbl.replace expected w.w_addr Fresh
              | _ -> ())
          | RF f ->
              if f.f_counts && f.f_size >= 0 then
                Hashtbl.replace blocks f.f_addr
                  (Captured_tmem.Alloc.carve_size f.f_size, false);
              if f.f_size >= 0 then
                for i = f.f_addr to f.f_addr + f.f_size - 1 do
                  Hashtbl.replace expected i Fresh
                done
              else Hashtbl.replace expected f.f_addr Fresh)
        effs
    in
    let rec cut items c r =
      if c = kmax && r = raws_total then ()
      else
        match items with
        | [] ->
            fail ~kind:"recovery-phantom" ~tid:(-1)
              ~seq:(History.length history)
              (Printf.sprintf
                 "recovery claims %d commits / %d raw stores but the \
                  history only yields %d / %d"
                 kmax raws_total c r)
        | SRaw (a, v) :: rest ->
            if r = raws_total then
              fail ~kind:"recovery-not-prefix" ~tid:(-1) ~seq:(c + r)
                (Printf.sprintf
                   "commit(s) up to seq %d were replayed past an \
                    unreplayed raw store to addr %d"
                   kmax a)
            else begin
              Hashtbl.replace expected a (Val v);
              cut rest c (r + 1)
            end
        | SCommit effs :: rest ->
            if c = kmax then
              fail ~kind:"recovery-not-prefix" ~tid:(-1) ~seq:(c + r)
                (Printf.sprintf
                   "raw store(s) up to %d were replayed past unreplayed \
                    commit seq %d"
                   raws_total (c + 1))
            else begin
              apply_commit effs;
              cut rest (c + 1) r
            end
    in
    cut stream 0 0;
    (* Allocator-header consistency at the cut (DESIGN.md §14): a block
       the durable prefix leaves live must carry an allocated header in
       the recovered image.  This is the crash-time face of the
       reclamation invariant — a block sitting in a limbo list whose
       free record is past the cut is still reader-visible, and
       materializing it as free would let post-recovery allocations
       recarve live state.  Conversely a block the prefix durably freed
       must read free, or recovery leaked it. *)
    Hashtbl.iter
      (fun addr (size, live_now) ->
        let header = recovered (addr - 1) in
        let want = (size lsl 1) lor (if live_now then 1 else 0) in
        if header <> want then
          fail
            ~kind:
              (if live_now then "recovery-freed-live-block"
               else "recovery-leaked-block")
            ~tid:(-1) ~seq:kmax
            (Printf.sprintf
               "block %d (carved %d) is %s at the durable cut but its \
                recovered header reads %d, expected %d"
               addr size
               (if live_now then "live" else "freed")
               header want))
      blocks;
    (* State check over every cell the model pins plus every cell an
       in-flight attempt wrote: recovered = expected (or initial where
       the durable prefix never touched it). *)
    let check_addr addr =
      match Hashtbl.find_opt expected addr with
      | Some Fresh -> ()
      | Some (Val v) ->
          let got = recovered addr in
          if got <> v then
            fail ~kind:"recovery-state" ~tid:(-1) ~seq:kmax
              (Printf.sprintf
                 "addr %d holds %d after recovery, durable prefix says %d"
                 addr got v)
      | None ->
          let got = recovered addr in
          let v = initial addr in
          if got <> v then
            fail ~kind:"recovery-state" ~tid:(-1) ~seq:kmax
              (Printf.sprintf
                 "addr %d holds %d after recovery, but no durable item \
                  touched it (initial %d)"
                 addr got v)
    in
    Hashtbl.iter (fun addr _ -> check_addr addr) expected;
    Hashtbl.iter
      (fun addr () ->
        if not (Hashtbl.mem expected addr) then check_addr addr)
      inflight;
    None
  with Found v -> Some v
