(* Benchmark-owned tracing, installed through the public [Txn.set_tracer]
   hook and around the benchmark's own calls into each layer.

   Spans are kept in preallocated per-tid buffers (struct of arrays).
   Transaction events of thread [tid] are delivered on the domain running
   it, so each domain writes only its own buffer and no lock is needed;
   the benchmark's own spans (setup, run, verify, ...) are written by the
   main domain, which is also the one running thread 0.  Nothing is
   written out until the traced pass ends.

   Known under-coverage: [Ev_begin] fires after begin-of-transaction
   bookkeeping and [Ev_commit] fires at the serialization point, before
   locks are released and the commit epilogue runs, so [txn] and
   [attempt] spans miss both ends of each attempt; that time shows up as
   self time of the enclosing [run] span. *)

module Txn = Captured_stm.Txn

let now () = Int64.to_int (Monotonic_clock.now ())

(* Span names; the index is what the buffers store. *)
let workload = 0
let setup = 1
let prepare = 2
let attach = 3
let run = 4
let txn = 5
let attempt = 6
let scope = 7
let sync = 8
let recover = 9
let verify = 10

let names =
  [|
    "workload"; "setup"; "app.prepare"; "wal.attach"; "run"; "txn"; "attempt";
    "scope"; "wal.sync"; "wal.recover"; "verify";
  |]

let max_scope_depth = 64

type buf = {
  nm : int array;
  t0 : int array;
  t1 : int array;  (** -1 while open *)
  parent : int array;  (** span id, -1 for the root *)
  txid : int array;  (** id of the enclosing [txn] span, -1 outside one *)
  committed : int array;  (** attempts and txns: 1 if they committed *)
  mutable len : int;
  mutable dropped : int;
  (* This tid's open transaction spans. *)
  mutable cur_txn : int;
  mutable cur_attempt : int;
  scopes : int array;
  mutable depth : int;
}

type t = {
  cap : int;
  bufs : buf array;
  mutable run_span : int;  (** open [run] span: parent of every [txn] *)
  mutable last_run : int;  (** most recently closed [run] span *)
  mutable stack : int list;  (** main domain's open spans *)
}

(* A span id is [tid * cap + index]. *)
let create ~tids ~cap =
  let mk () =
    {
      nm = Array.make cap 0;
      t0 = Array.make cap 0;
      t1 = Array.make cap 0;
      parent = Array.make cap 0;
      txid = Array.make cap 0;
      committed = Array.make cap 0;
      len = 0;
      dropped = 0;
      cur_txn = -1;
      cur_attempt = -1;
      scopes = Array.make max_scope_depth (-1);
      depth = 0;
    }
  in
  {
    cap;
    bufs = Array.init tids (fun _ -> mk ());
    run_span = -1;
    last_run = -1;
    stack = [];
  }

let buf_of t id = t.bufs.(id / t.cap)
let idx_of t id = id mod t.cap

(* Opening fails (and is counted as a drop) when the buffer is full or
   the parent itself was dropped, so a recorded span always has its whole
   ancestry recorded. *)
let open_span t tid nm ~parent ~txid time =
  let b = t.bufs.(tid) in
  if b.len >= t.cap || (parent < 0 && nm <> workload) then begin
    b.dropped <- b.dropped + 1;
    -1
  end
  else begin
    let i = b.len in
    let id = (tid * t.cap) + i in
    b.nm.(i) <- nm;
    b.t0.(i) <- time;
    b.t1.(i) <- -1;
    b.parent.(i) <- parent;
    b.txid.(i) <- (if nm = txn then id else txid);
    b.committed.(i) <- 0;
    b.len <- i + 1;
    id
  end

let close_span t id time ~committed =
  if id >= 0 then begin
    let b = buf_of t id and i = idx_of t id in
    b.t1.(i) <- time;
    b.committed.(i) <- (if committed then 1 else 0)
  end

(* The one active trace (the tracer hook is global too). *)
let active : t option ref = ref None

(* [span nm f] records [f ()] as a main-domain span under the innermost
   open one, when a trace is active. *)
let span nm f =
  match !active with
  | None -> f ()
  | Some t ->
      let parent = match t.stack with p :: _ -> p | [] -> -1 in
      let id = open_span t 0 nm ~parent ~txid:(-1) (now ()) in
      t.stack <- id :: t.stack;
      if nm = run then t.run_span <- id;
      Fun.protect
        ~finally:(fun () ->
          close_span t id (now ()) ~committed:false;
          t.stack <- List.tl t.stack;
          if nm = run then begin
            t.run_span <- -1;
            t.last_run <- id
          end)
        f

(* The [run] span just closed, when tracing. *)
let last_run () =
  match !active with Some t when t.last_run >= 0 -> Some t.last_run | _ -> None

let close_scopes t b time =
  while b.depth > 0 do
    b.depth <- b.depth - 1;
    close_span t b.scopes.(b.depth) time ~committed:false
  done

let on_event t tid (ev : Txn.event) =
  match ev with
  | Txn.Ev_begin { attempt = n } ->
      let b = t.bufs.(tid) and time = now () in
      if n = 1 || b.cur_txn < 0 then begin
        (* A transaction that left by an exception never committed. *)
        if b.cur_txn >= 0 then close_span t b.cur_txn time ~committed:false;
        b.cur_txn <- open_span t tid txn ~parent:t.run_span ~txid:(-1) time
      end;
      b.cur_attempt <-
        open_span t tid attempt ~parent:b.cur_txn ~txid:b.cur_txn time
  | Txn.Ev_commit ->
      let b = t.bufs.(tid) and time = now () in
      close_scopes t b time;
      close_span t b.cur_attempt time ~committed:true;
      close_span t b.cur_txn time ~committed:true;
      b.cur_attempt <- -1;
      b.cur_txn <- -1
  | Txn.Ev_abort { user } ->
      let b = t.bufs.(tid) and time = now () in
      close_scopes t b time;
      close_span t b.cur_attempt time ~committed:false;
      b.cur_attempt <- -1;
      if user then begin
        close_span t b.cur_txn time ~committed:false;
        b.cur_txn <- -1
      end
  | Txn.Ev_scope_begin ->
      let b = t.bufs.(tid) in
      let parent =
        if b.depth > 0 then b.scopes.(b.depth - 1) else b.cur_attempt
      in
      let id = open_span t tid scope ~parent ~txid:b.cur_txn (now ()) in
      if b.depth < max_scope_depth then begin
        b.scopes.(b.depth) <- id;
        b.depth <- b.depth + 1
      end
  | Txn.Ev_scope_commit | Txn.Ev_scope_abort ->
      let b = t.bufs.(tid) in
      if b.depth > 0 then begin
        b.depth <- b.depth - 1;
        close_span t b.scopes.(b.depth) (now ())
          ~committed:(ev = Txn.Ev_scope_commit)
      end
  | _ -> ()

let start ~tids ~cap =
  let t = create ~tids ~cap in
  active := Some t;
  Txn.set_tracer (Some (on_event t));
  t

(* [suspend f] runs [f] with the active trace switched off: it records
   no span and receives no event. *)
let suspend f =
  match !active with
  | None -> f ()
  | Some t ->
      Txn.set_tracer None;
      active := None;
      Fun.protect
        ~finally:(fun () ->
          active := Some t;
          Txn.set_tracer (Some (on_event t)))
        f

let stop t =
  Txn.set_tracer None;
  active := None;
  (* A transaction cut short by an exception is left open; close it where
     it began so it cannot outlive its parent. *)
  Array.iter
    (fun b ->
      for i = 0 to b.len - 1 do
        if b.t1.(i) < 0 then b.t1.(i) <- b.t0.(i)
      done)
    t.bufs

let spans t = Array.fold_left (fun n b -> n + b.len) 0 t.bufs
let used t = Array.fold_left (fun n b -> max n b.len) 0 t.bufs
let dropped t = Array.fold_left (fun n b -> n + b.dropped) 0 t.bufs

let iter t f =
  Array.iteri
    (fun tid b ->
      for i = 0 to b.len - 1 do
        f ((tid * t.cap) + i)
      done)
    t.bufs

let name_of t id = (buf_of t id).nm.(idx_of t id)
let start_of t id = (buf_of t id).t0.(idx_of t id)
let stop_of t id = (buf_of t id).t1.(idx_of t id)
let parent_of t id = (buf_of t id).parent.(idx_of t id)
let txid_of t id = (buf_of t id).txid.(idx_of t id)
let committed t id = (buf_of t id).committed.(idx_of t id) = 1
let dur t id = stop_of t id - start_of t id
let tid_of t id = id / t.cap

(* Every recorded span must sit inside its parent's interval, under a
   parent of the right kind, and share its transaction's id.  Returns the
   number of violations and the first one. *)
let check_nesting t =
  let errors = ref 0 and first = ref None in
  let bad id msg =
    incr errors;
    if !first = None then
      first := Some (Printf.sprintf "span %d (%s): %s" id names.(name_of t id) msg)
  in
  iter t (fun id ->
      let nm = name_of t id and p = parent_of t id in
      if stop_of t id < start_of t id then bad id "ends before it starts";
      if p < 0 then (if nm <> workload then bad id "has no parent")
      else if idx_of t p >= (buf_of t p).len then bad id "parent not recorded"
      else begin
        if start_of t id < start_of t p || stop_of t id > stop_of t p then
          bad id "outside its parent";
        let pn = name_of t p in
        let ok_parent =
          if nm = txn then pn = run
          else if nm = attempt then pn = txn
          else if nm = scope then pn = attempt || pn = scope
          else pn <> txn && pn <> attempt && pn <> scope
        in
        if not ok_parent then bad id ("under " ^ names.(pn));
        if (nm = attempt || nm = scope) && txid_of t id <> txid_of t p then
          bad id "transaction id differs from its parent's"
      end);
  (!errors, !first)

(* Self time per span name: each span's duration minus the union of its
   children's intervals (children on other tids overlap, hence the
   union).  Returns [(name, count, total_ns, self_ns)] for names seen. *)
let self_times t =
  let ids = Array.make (spans t) 0 in
  let k = ref 0 in
  iter t (fun id ->
      ids.(!k) <- id;
      incr k);
  Array.sort
    (fun a b ->
      let c = compare (parent_of t a) (parent_of t b) in
      if c <> 0 then c else compare (start_of t a) (start_of t b))
    ids;
  let covered = Hashtbl.create 1024 in
  let n = Array.length ids in
  let i = ref 0 in
  while !i < n do
    let p = parent_of t ids.(!i) in
    let j = ref !i and cov = ref 0 and cs = ref 0 and ce = ref (-1) in
    while !j < n && parent_of t ids.(!j) = p do
      let s = start_of t ids.(!j) and e = stop_of t ids.(!j) in
      if s > !ce then begin
        if !ce > !cs then cov := !cov + (!ce - !cs);
        cs := s;
        ce := e
      end
      else if e > !ce then ce := e;
      incr j
    done;
    if !ce > !cs then cov := !cov + (!ce - !cs);
    if p >= 0 then Hashtbl.replace covered p !cov;
    i := !j
  done;
  let count = Array.make (Array.length names) 0 in
  let total = Array.make (Array.length names) 0 in
  let self = Array.make (Array.length names) 0 in
  iter t (fun id ->
      let nm = name_of t id in
      let d = dur t id in
      count.(nm) <- count.(nm) + 1;
      total.(nm) <- total.(nm) + d;
      let c = Option.value ~default:0 (Hashtbl.find_opt covered id) in
      self.(nm) <- self.(nm) + max 0 (d - c));
  List.filter_map
    (fun nm ->
      if count.(nm) = 0 then None
      else Some (names.(nm), count.(nm), total.(nm), self.(nm)))
    (List.init (Array.length names) Fun.id)

(* Chrome trace-event format ("X" complete events, microseconds), which
   Perfetto and chrome://tracing open. *)
let write_chrome t path =
  let base = ref max_int in
  iter t (fun id -> base := min !base (start_of t id));
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
      let first = ref true in
      iter t (fun id ->
          let nm = name_of t id in
          if not !first then output_string oc ",\n";
          first := false;
          Printf.fprintf oc
            "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\
             \"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"txn\":%d%s}}"
            names.(nm) (tid_of t id)
            (float_of_int (start_of t id - !base) /. 1e3)
            (float_of_int (dur t id) /. 1e3)
            id (parent_of t id) (txid_of t id)
            (if nm = attempt || nm = txn || nm = scope then
               if committed t id then ",\"committed\":true"
               else ",\"committed\":false"
             else ""));
      output_string oc "\n]}\n")

(* Latency-only hook for the end-to-end latency of the STAMP workloads,
   whose transactions run inside app code: the time from a transaction's
   first [Ev_begin] to its [Ev_commit], on a 1-domain leg. *)
module Latency = struct
  type t = { mutable start : int; mutable n : int; samples : int array }

  let create ~cap = { start = 0; n = 0; samples = Array.make cap 0 }

  let on_event l _tid (ev : Txn.event) =
    match ev with
    | Txn.Ev_begin { attempt = 1 } -> l.start <- now ()
    | Txn.Ev_commit ->
        if l.n < Array.length l.samples then begin
          l.samples.(l.n) <- now () - l.start;
          l.n <- l.n + 1
        end
    | _ -> ()

  (* Samples recorded since the last call. *)
  let take l =
    let a = Array.sub l.samples 0 l.n in
    l.n <- 0;
    a
end
