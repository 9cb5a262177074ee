(* Write-ahead log for durable transactions.

   The log is a flat byte stream of self-framing records, each one
   detectably torn or corrupt at byte granularity (wal_record.ml holds
   the records and their codec; this file the device and recovery).

   Commit records are redo-style regardless of the engine: under [+lazy]
   the write set holds the buffered values; under eager undo the record
   pairs the write set's addresses with their post-transaction memory
   values at the serialization point (a true undo-style durable design presupposes
   persisting in-place stores as they happen, which a process-model WAL
   cannot do).  Captured writes appear in neither engine's record — the
   paper's elision carried into the persistence layer ([Stats.wal_skips]).

   The device half models a single append-only log file with group
   commit: [append_*] serializes into a pending buffer; once [group]
   records accumulate (or [sync] is forced) the pending bytes move to
   the durable prefix — the moment a commit becomes *acknowledged*.  A
   crash discards pending bytes; a torn crash persists a byte prefix of
   the last pending record.  With [~dir] the durable prefix is mirrored
   to [<dir>/wal.log] so `stamp_run recover DIR` works across processes. *)

module Memory = Captured_tmem.Memory
module Alloc = Captured_tmem.Alloc
module Snapshot = Captured_tmem.Snapshot

exception Crashed

include Wal_record

(* ------------------------------------------------------------------ *)
(* Device                                                               *)

(* The durable prefix is two segments: [base], the last checkpoint
   record as [encode_record] wrote it (empty before the first), then the
   first [log_len] bytes of [log], which syncs append behind it.  The
   checkpoint is written once, never copied into a growing buffer, and
   recovery reads both segments in place.  No record spans the two. *)
type t = {
  mutable base : Bytes.t;
  mutable log : Bytes.t;
  mutable log_len : int;
  mutable pending : Bytes.t;  (* appended, not yet fsynced: [pending_len] bytes *)
  mutable pending_len : int;
  group : int;
  mutable seq : int;  (* commit records appended (incl. pending) *)
  mutable raws : int;  (* raw records appended (incl. pending) *)
  mutable synced_seq : int;  (* highest acknowledged commit seq *)
  mutable synced_raws : int;
  mutable pending_records : int;
  mutable last_record_bytes : int;
  mutable appended_bytes : int;  (* total ever serialized *)
  mutable crashed : bool;
  dir : string option;
  mutex : Mutex.t;
}

let log_file dir = Filename.concat dir "wal.log"

let create ?(group = 4) ?dir () =
  if group < 1 then invalid_arg "Wal.create: group must be >= 1";
  (match dir with
  | Some d ->
      if not (Sys.file_exists d) then Sys.mkdir d 0o755;
      (* A fresh device starts a fresh log. *)
      let oc = open_out_bin (log_file d) in
      close_out oc
  | None -> ());
  {
    base = Bytes.empty;
    log = Bytes.create 4096;
    log_len = 0;
    pending = Bytes.create 1024;
    pending_len = 0;
    group;
    seq = 0;
    raws = 0;
    synced_seq = 0;
    synced_raws = 0;
    pending_records = 0;
    last_record_bytes = 0;
    appended_bytes = 0;
    crashed = false;
    dir;
    mutex = Mutex.create ();
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let file_append t bytes off len =
  match t.dir with
  | None -> ()
  | Some d ->
      let oc =
        open_out_gen [ Open_wronly; Open_append; Open_creat; Open_binary ]
          0o644 (log_file d)
      in
      output oc bytes off len;
      close_out oc

let file_rewrite t =
  match t.dir with
  | None -> ()
  | Some d ->
      let oc = open_out_bin (log_file d) in
      output_bytes oc t.base;
      output oc t.log 0 t.log_len;
      close_out oc

(* Move the first [n] pending bytes to the end of the durable log. *)
let persist_pending t n =
  let need = t.log_len + n in
  if need > Bytes.length t.log then begin
    let log = Bytes.create (max need (2 * Bytes.length t.log)) in
    Bytes.blit t.log 0 log 0 t.log_len;
    t.log <- log
  end;
  Bytes.blit t.pending 0 t.log t.log_len n;
  t.log_len <- need

let sync_unlocked t =
  if (not t.crashed) && t.pending_len > 0 then begin
    let at = t.log_len in
    persist_pending t t.pending_len;
    t.pending_len <- 0;
    file_append t t.log at (t.log_len - at);
    t.pending_records <- 0;
    t.synced_seq <- t.seq;
    t.synced_raws <- t.raws
  end

let sync t = locked t (fun () -> sync_unlocked t)

(* Room for [n] more pending bytes. *)
let reserve t n =
  let need = t.pending_len + n in
  if need > Bytes.length t.pending then begin
    let b = Bytes.create (max need (2 * Bytes.length t.pending)) in
    Bytes.blit t.pending 0 b 0 t.pending_len;
    t.pending <- b
  end

(* Records are encoded in place at the end of pending: [open_record]
   reserves the frame and writes its header, [close_record] its checksum,
   then group-commits once [group] records accumulate.  Returns (record
   bytes, whether this append fsynced). *)
let open_record t ~kind ~payload =
  reserve t (word_bytes * frame_words payload);
  start_at t.pending ~pos:t.pending_len ~kind ~payload

let close_record t ~group_commit w =
  finish w;
  let len = w.pos - t.pending_len in
  t.pending_len <- w.pos;
  t.last_record_bytes <- len;
  t.appended_bytes <- t.appended_bytes + len;
  t.pending_records <- t.pending_records + 1;
  let syncing = group_commit && t.pending_records >= t.group in
  if syncing then sync_unlocked t;
  (len, syncing)

(* The commit record is encoded from the write set as it stands, with no
   intermediate pair array. *)
let append_commit_unlocked t ~group_commit ~tid ~writes ~buffered ~memory
    ~allocs ~frees =
  let seq = t.seq + 1 in
  t.seq <- seq;
  if t.crashed then (0, false)
  else begin
    let n = Write_set.size writes in
    let w =
      open_record t ~kind:kind_commit
        ~payload:(commit_payload_words ~writes:n ~allocs ~frees)
    in
    put_commit_head w ~seq ~tid ~writes:n;
    for k = 0 to n - 1 do
      let addr = Write_set.addr writes k in
      put w addr;
      put w
        (if buffered then Write_set.value writes k
         else Memory.get memory addr)
    done;
    put_commit_tail w ~allocs ~frees;
    close_record t ~group_commit w
  end

(* [locked] would allocate a closure per commit; the lock is released by
   hand, on the way out of a raise too. *)
let append_commit ?(group_commit = true) t ~tid ~writes ~buffered ~memory
    ~allocs ~frees =
  Mutex.lock t.mutex;
  match
    append_commit_unlocked t ~group_commit ~tid ~writes ~buffered ~memory
      ~allocs ~frees
  with
  | r ->
      Mutex.unlock t.mutex;
      r
  | exception e ->
      Mutex.unlock t.mutex;
      raise e

let append_raw t ~addr ~value =
  locked t (fun () ->
      t.raws <- t.raws + 1;
      if t.crashed then (0, false)
      else begin
        let w = open_record t ~kind:kind_raw ~payload:raw_payload_words in
        put w addr;
        put w value;
        close_record t ~group_commit:true w
      end)

(* Process death: pending (unacknowledged) bytes are lost. *)
let crash t =
  locked t (fun () ->
      t.pending_len <- 0;
      t.pending_records <- 0;
      t.crashed <- true;
      file_rewrite t)

(* Process death during an fsync of the last appended record: everything
   pending before it reaches the durable prefix, plus [cut] bytes of the
   record itself.  Nothing is acknowledged (the fsync never returned). *)
let crash_torn_unlocked t ~cut =
  let plen = t.pending_len in
  let cut = max 0 (min cut (t.last_record_bytes - 1)) in
  persist_pending t (max 0 (plen - t.last_record_bytes + cut));
  t.pending_len <- 0;
  t.pending_records <- 0;
  t.crashed <- true;
  file_rewrite t

let crash_torn t ~cut = locked t (fun () -> crash_torn_unlocked t ~cut)

let checkpoint_record t image =
  encode_checkpoint ~seq:t.seq ~raws:t.raws image

(* Checkpoint protocol: flush the log, append the checkpoint record,
   fsync it, then truncate the durable prefix to start at the checkpoint.
   A crash between the fsync and the truncation merely leaves the old
   prefix in place — recovery uses the *last* valid checkpoint either
   way, so truncation is pure space reclamation. *)
let checkpoint t image =
  locked t (fun () ->
      if t.crashed then invalid_arg "Wal.checkpoint: crashed device";
      sync_unlocked t;
      let b = checkpoint_record t image in
      t.base <- b;
      t.log_len <- 0;
      t.appended_bytes <- t.appended_bytes + Bytes.length b;
      file_rewrite t)

(* Crash halfway through writing the checkpoint record: a torn append of
   it.  The old durable prefix keeps its contents (truncation never
   happened) and gains a torn checkpoint tail that recovery must drop. *)
let checkpoint_torn t image =
  locked t (fun () ->
      sync_unlocked t;
      let b = checkpoint_record t image in
      reserve t (Bytes.length b);
      Bytes.blit b 0 t.pending t.pending_len (Bytes.length b);
      t.pending_len <- t.pending_len + Bytes.length b;
      t.last_record_bytes <- Bytes.length b;
      crash_torn_unlocked t ~cut:(Bytes.length b / 2))

let group t = t.group
let pending_records t = t.pending_records
let synced_seq t = t.synced_seq
let synced_raws t = t.synced_raws
let log_bytes t = Bytes.length t.base + t.log_len
let appended_bytes t = t.appended_bytes

let contents t =
  locked t (fun () ->
      let b = Bytes.create (log_bytes t) in
      Bytes.blit t.base 0 b 0 (Bytes.length t.base);
      Bytes.blit t.log 0 b (Bytes.length t.base) t.log_len;
      b)

(* ------------------------------------------------------------------ *)
(* Recovery                                                             *)

type recovery = {
  r_memory : Memory.t;
  r_arenas : Alloc.t array;
  r_floor_seq : int;  (* commits inside the restored checkpoint *)
  r_floor_raws : int;
  r_applied_seqs : int list;  (* commit records replayed, log order *)
  r_raws_applied : int;
  r_records : int;  (* records scanned, checkpoints included *)
  r_torn : bool;
  r_corrupt : bool;
  r_freed : (int * int * int) list;  (* (tid, addr, carved size) replayed frees *)
  r_wall_ms : float;
}

(* Replay one commit record onto the restored image.  Allocations are
   address-faithful: unlink the block from whichever arena's free list
   holds it (cross-thread frees migrate blocks between arenas), stamp
   the header via the owning arena, then write the logged image.  Frees
   go to the committing thread's arena, like the live engine's
   "freeing thread keeps it". *)
let replay_commit mem arenas ~tid ~writes ~allocs ~frees ~freed_acc =
  Array.iter
    (fun (addr, size, image) ->
      let owner =
        match Array.find_opt (fun a -> Alloc.owns a addr) arenas with
        | Some a -> a
        | None -> failwith (Printf.sprintf "alloc at %d outside arenas" addr)
      in
      let rec unlink i =
        if i < Array.length arenas then
          if Alloc.unlink_free arenas.(i) ~addr ~size then ()
          else unlink (i + 1)
      in
      unlink 0;
      Alloc.replay_alloc_at owner ~addr ~size;
      Array.iteri (fun i v -> Memory.set mem (addr + i) v) image)
    allocs;
  Array.iter (fun (a, v) -> Memory.set mem a v) writes;
  Array.iter
    (fun addr ->
      let arena = arenas.(min (tid + 1) (Array.length arenas - 1)) in
      let size = Alloc.block_size arena addr in
      freed_acc := (tid, addr, size) :: !freed_acc;
      Alloc.free arena addr)
    frees

(* Deliberately-buggy lenient replay of a torn tail, used to seed a
   known recovery violation for the checker's ddmin self-test: applies
   whatever complete write pairs of the torn commit record made it to
   the log — exactly the partial-transaction visibility the framing
   exists to prevent. *)
let apply_torn_tail mem bytes ~len ~pos =
  let avail = (len - pos) / word_bytes in
  let word i = word_at bytes (pos + (i * word_bytes)) in
  if avail >= 5 && word 0 = magic lor kind_commit then begin
    let nw = word 4 in
    let n = min nw ((avail - 5) / 2) in
    for k = 0 to n - 1 do
      let a = word (5 + (2 * k)) in
      let v = word (6 + (2 * k)) in
      if a > 0 && a < Memory.size mem then Memory.set mem a v
    done
  end

(* What recovery reads from the log: records to replay, and checkpoints
   left where they lie, so the image is restored straight from the log's
   bytes. *)
type root = {
  floor_seq : int;
  floor_raws : int;
  image : Bytes.t;  (* the snapshot is [words] words from byte [first] *)
  first : int;
  words : int;
}

type entry = Replay of record | Root of root

let parse_entry bytes ~pos ~kind ~total =
  if kind = kind_checkpoint then
    let floor_seq, floor_raws, first, words = checkpoint_at bytes ~pos ~total in
    Root { floor_seq; floor_raws; image = bytes; first; words }
  else Replay (parse_record bytes ~pos ~kind ~total)

(* Scan [(bytes, len)] segments as one stream; the first torn or corrupt
   frame ends it, at [(bytes, len, pos)]. *)
let rec scan_segments = function
  | [] -> ([], Clean, None)
  | (bytes, len) :: rest -> (
      match scan_from ~parse:parse_entry bytes ~len with
      | entries, Clean, _ ->
          let more, tail, stop = scan_segments rest in
          (entries @ more, tail, stop)
      | entries, tail, pos -> (entries, tail, Some (bytes, len, pos)))

(* The last checkpoint that made it to the log whole, and the records
   behind it. *)
let rec after_last_root root rest = function
  | [] -> (root, List.rev rest)
  | Root r :: tl -> after_last_root (Some r) [] tl
  | Replay r :: tl -> after_last_root root (r :: rest) tl

let recover_segments ?(bug_apply_torn = false) segments =
  let t0 = Captured_util.Clock.now () in
  let entries, tail, stop = scan_segments segments in
  match after_last_root None [] entries with
  | None, _ -> Error "no checkpoint record in log"
  | Some { floor_seq; floor_raws; image; first; words }, rest -> (
      match
        Snapshot.restore_words ~len:words (fun i ->
            word_at image (first + (i * word_bytes)))
      with
      | Error e -> Error ("checkpoint snapshot: " ^ e)
      | Ok (mem, arenas) ->
          let applied = ref [] in
          let raws_applied = ref 0 in
          let freed = ref [] in
          let err = ref None in
          List.iter
            (fun r ->
              if !err = None then
                match r with
                | Commit { seq; tid; writes; allocs; frees } -> (
                    match
                      replay_commit mem arenas ~tid ~writes ~allocs ~frees
                        ~freed_acc:freed
                    with
                    | () -> applied := seq :: !applied
                    | exception Failure msg -> err := Some msg
                    | exception Invalid_argument msg -> err := Some msg)
                | Raw { addr; value } ->
                    Memory.set mem addr value;
                    incr raws_applied
                | Checkpoint _ -> ())
            rest;
          (match (!err, stop) with
          | None, Some (bytes, len, pos) when bug_apply_torn && tail = Torn_tail
            ->
              apply_torn_tail mem bytes ~len ~pos
          | _ -> ());
          match !err with
          | Some msg -> Error ("replay: " ^ msg)
          | None ->
              Ok
                {
                  r_memory = mem;
                  r_arenas = arenas;
                  r_floor_seq = floor_seq;
                  r_floor_raws = floor_raws;
                  r_applied_seqs = List.rev !applied;
                  r_raws_applied = !raws_applied;
                  r_records = List.length entries;
                  r_torn = tail = Torn_tail;
                  r_corrupt = tail = Corrupt_tail;
                  r_freed = List.rev !freed;
                  r_wall_ms = (Captured_util.Clock.now () -. t0) *. 1000.;
                })

let recover_bytes ?bug_apply_torn bytes =
  recover_segments ?bug_apply_torn [ (bytes, Bytes.length bytes) ]

let recover ?bug_apply_torn t =
  locked t (fun () ->
      recover_segments ?bug_apply_torn
        [ (t.base, Bytes.length t.base); (t.log, t.log_len) ])

let recover_dir ?bug_apply_torn dir =
  let path = log_file dir in
  if not (Sys.file_exists path) then Error ("no log at " ^ path)
  else begin
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let bytes = Bytes.create len in
    really_input ic bytes 0 len;
    close_in ic;
    recover_bytes ?bug_apply_torn bytes
  end
