(* Write-ahead log records and their codec (see wal.ml).

   The log is a flat byte stream of self-framing records.  Every record
   is word-framed — [magic|kind; payload_len; payload...; checksum] —
   with each word serialized as 8 little-endian bytes, so torn writes
   and bit corruption are detectable at byte granularity:

   - a record whose frame runs past the end of the stream is *torn*
     (the tail of an interrupted fsync) and is dropped by recovery;
   - a record whose magic, structure or trailing checksum does not
     match is *corrupt* and recovery stops at it. *)

(* ------------------------------------------------------------------ *)
(* Records and codec                                                    *)

type record =
  | Commit of {
      seq : int;  (* 1-based commit serial number, assigned by the device *)
      tid : int;
      writes : (int * int) array;  (* (addr, value) *)
      allocs : (int * int * int array) array;  (* (addr, carved size, image) *)
      frees : int array;  (* deferred frees performed at commit *)
    }
  | Raw of { addr : int; value : int }
  | Checkpoint of { seq : int; raws : int; snapshot : int array }

let word_bytes = 8
let magic = 0x57414C00 (* "WAL\0" *)
let kind_commit = 1
let kind_raw = 2
(* A checkpoint's snapshot is a run-length image (Snapshot).  Kind 3 was
   the earlier cell-pair image; it is no longer read, so a log holding one
   fails recovery as corrupt instead of restoring a misread image. *)
let kind_checkpoint = 4

let kind_of = function
  | Commit _ -> kind_commit
  | Raw _ -> kind_raw
  | Checkpoint _ -> kind_checkpoint

(* A commit's payload: seq, tid, the write count and its pairs, the
   allocation count and each allocation's addr, size and image, the free
   count and the frees. *)
let commit_payload_words ~writes ~allocs ~frees =
  let alloc_words = ref 0 in
  for k = 0 to Array.length allocs - 1 do
    let _, size, _ = allocs.(k) in
    alloc_words := !alloc_words + 2 + size
  done;
  2 + 1 + (2 * writes) + 1 + !alloc_words + 1 + Array.length frees

let raw_payload_words = 2

let payload_words = function
  | Commit { writes; allocs; frees; _ } ->
      commit_payload_words ~writes:(Array.length writes) ~allocs ~frees
  | Raw _ -> raw_payload_words
  | Checkpoint { snapshot; _ } -> 3 + Array.length snapshot

(* Frame = magic word + length word + payload + checksum word. *)
let frame_words payload = 3 + payload

let commit_record_words ~writes ~allocs ~frees =
  frame_words (commit_payload_words ~writes ~allocs ~frees)

let raw_record_words = frame_words raw_payload_words

(* Multiply-xor-shift word mix (splitmix-style, 63-bit): a single bit
   flip anywhere in the covered words avalanches through the fold. *)
let mix h w =
  let h = (h lxor w) * 0x2545F4914F6CDD1D in
  let h = h lxor (h lsr 31) in
  let h = h * 0x100000001B3 in
  h lxor (h lsr 27)

let checksum_seed = 0x57414C

(* No record (checkpoint snapshots included) plausibly exceeds 2^32
   words; anything larger is structural corruption, not truncation. *)
let max_payload_words = 1 lsl 32

(* A record written straight into a [Bytes] that has room for it from
   [pos] on, checksummed as it is written. *)
type writer = { bytes : Bytes.t; mutable pos : int; mutable sum : int }

let put w v =
  w.sum <- mix w.sum v;
  Bytes.set_int64_le w.bytes w.pos (Int64.of_int v);
  w.pos <- w.pos + word_bytes

(* A writer at byte [pos] of [bytes] holding the frame header of a
   record of kind [kind] with [payload] payload words. *)
let start_at bytes ~pos ~kind ~payload =
  let w = { bytes; pos; sum = checksum_seed } in
  put w (magic lor kind);
  put w payload;
  w

(* The same, into a fresh [Bytes] of the record's exact size. *)
let start ~kind ~payload =
  start_at
    (Bytes.create (word_bytes * frame_words payload))
    ~pos:0 ~kind ~payload

(* [len] words of [a] from [off]: a loop of its own, not a closure call
   per word, since a checkpoint's snapshot is most of the log's bytes. *)
let put_slice w a off len =
  if off < 0 || len < 0 || off > Array.length a - len then
    invalid_arg "Wal.put_slice";
  let sum = ref w.sum and pos = w.pos in
  for i = 0 to len - 1 do
    let v = Array.unsafe_get a (off + i) in
    sum := mix !sum v;
    Bytes.set_int64_le w.bytes (pos + (i * word_bytes)) (Int64.of_int v)
  done;
  w.sum <- !sum;
  w.pos <- pos + (len * word_bytes)

(* The checksum word ends the frame; [w.pos] is then the byte past it. *)
let finish w =
  Bytes.set_int64_le w.bytes w.pos (Int64.of_int w.sum);
  w.pos <- w.pos + word_bytes

(* [finish] on a writer from [start]: the record's bytes. *)
let finish_bytes w =
  finish w;
  assert (w.pos = Bytes.length w.bytes);
  w.bytes

let put_checkpoint_head w ~seq ~raws ~words =
  put w seq;
  put w raws;
  put w words

(* A commit record is written in three parts, so the write pairs can come
   straight from a write set ([Wal.append_commit]): the head, [writes]
   pairs of [put w addr; put w value], then the tail. *)
let put_commit_head w ~seq ~tid ~writes =
  put w seq;
  put w tid;
  put w writes

let put_commit_tail w ~allocs ~frees =
  put w (Array.length allocs);
  for k = 0 to Array.length allocs - 1 do
    let addr, size, image = allocs.(k) in
    put w addr;
    put w size;
    put_slice w image 0 (Array.length image)
  done;
  put w (Array.length frees);
  put_slice w frees 0 (Array.length frees)

let encode_record r =
  let w = start ~kind:(kind_of r) ~payload:(payload_words r) in
  (match r with
  | Commit { seq; tid; writes; allocs; frees } ->
      put_commit_head w ~seq ~tid ~writes:(Array.length writes);
      Array.iter
        (fun (a, v) ->
          put w a;
          put w v)
        writes;
      put_commit_tail w ~allocs ~frees
  | Raw { addr; value } ->
      put w addr;
      put w value
  | Checkpoint { seq; raws; snapshot } ->
      put_checkpoint_head w ~seq ~raws ~words:(Array.length snapshot);
      put_slice w snapshot 0 (Array.length snapshot));
  finish_bytes w

(* The checkpoint record of a live image, its words written from memory
   into the record as the image streams them: the same bytes as
   [encode_record] of a [Checkpoint] holding the image's encoding. *)
let encode_checkpoint ~seq ~raws image =
  let words = Captured_tmem.Snapshot.image_words image in
  let w = start ~kind:kind_checkpoint ~payload:(3 + words) in
  put_checkpoint_head w ~seq ~raws ~words;
  Captured_tmem.Snapshot.write_image image (put_slice w);
  finish_bytes w

type decode_error = Torn | Corrupt

let word_at bytes pos = Int64.to_int (Bytes.get_int64_le bytes pos)

(* [frame bytes ~pos ~len] checks the frame of the record at byte [pos]
   of the first [len] bytes: magic, length and checksum.  Returns the
   record's kind and its length in words. *)
let frame bytes ~pos ~len =
  let word i = word_at bytes (pos + (i * word_bytes)) in
  if pos + (2 * word_bytes) > len then Error Torn
  else
    let kind = word 0 lxor magic in
    if kind <> kind_commit && kind <> kind_raw && kind <> kind_checkpoint then
      Error Corrupt
    else
      let n_payload = word 1 in
      (* Absolute plausibility bound only: a length that merely runs past
         the available bytes is a *torn* frame (interrupted write), not a
         corrupt one — the byte count on disk cannot distinguish a huge
         record from a truncated one, so the caller-visible distinction
         keys on structure, not stream length. *)
      if n_payload < 0 || n_payload > max_payload_words then Error Corrupt
      else
        let total = 3 + n_payload in
        if pos + (total * word_bytes) > len then Error Torn
        else begin
          let sum = ref checksum_seed in
          for i = 0 to total - 2 do
            sum := mix !sum (word i)
          done;
          if word (total - 1) <> !sum then Error Corrupt else Ok (kind, total)
        end

(* A framed checkpoint's [(seq, raws, first snapshot byte, snapshot
   words)]; its snapshot must fill the rest of the frame. *)
let checkpoint_at bytes ~pos ~total =
  let word i = word_at bytes (pos + (i * word_bytes)) in
  if total < 6 || word 4 <> total - 6 then failwith "count";
  (word 2, word 3, pos + (5 * word_bytes), total - 6)

(* Structural parse of a framed record; checksummed input can still
   disagree with the frame length, so every sub-read is guarded
   ([Failure] = corrupt). *)
let parse_record bytes ~pos ~kind ~total =
  if kind = kind_checkpoint then
    let seq, raws, first, n = checkpoint_at bytes ~pos ~total in
    let snapshot = Array.init n (fun i -> word_at bytes (first + (i * word_bytes))) in
    Checkpoint { seq; raws; snapshot }
  else begin
    let k = ref 2 in
    let take () =
      if !k >= total - 1 then failwith "short";
      let v = word_at bytes (pos + (!k * word_bytes)) in
      incr k;
      v
    in
    let arr n f =
      if n < 0 || n > total - 3 then failwith "count";
      Array.init n (fun _ -> f ())
    in
    let r =
      if kind = kind_commit then begin
        let seq = take () in
        let tid = take () in
        let writes =
          arr (take ()) (fun () ->
              let a = take () in
              let v = take () in
              (a, v))
        in
        let allocs =
          arr (take ()) (fun () ->
              let addr = take () in
              let size = take () in
              let image = arr size take in
              (addr, size, image))
        in
        let frees = arr (take ()) take in
        Commit { seq; tid; writes; allocs; frees }
      end
      else begin
        let addr = take () in
        let value = take () in
        Raw { addr; value }
      end
    in
    if !k <> total - 1 then failwith "trailing";
    r
  end

(* The record at [pos] of the first [len] bytes, read by [parse] once
   its frame checks out, and the position past it. *)
let decode_at ~parse bytes ~pos ~len =
  match frame bytes ~pos ~len with
  | Error _ as e -> e
  | Ok (kind, total) -> (
      match parse bytes ~pos ~kind ~total with
      | r -> Ok (r, pos + (total * word_bytes))
      | exception Failure _ -> Error Corrupt)

let decode_record bytes ~pos =
  decode_at ~parse:parse_record bytes ~pos ~len:(Bytes.length bytes)

type tail = Clean | Torn_tail | Corrupt_tail

(* Decode the first [len] bytes front to back; stop at the first torn or
   corrupt frame (everything past an undecodable record is lost — there
   is no resynchronisation).  Returns the records, the tail state and the
   byte offset where decoding stopped. *)
let scan_from ~parse bytes ~len =
  let rec go acc pos =
    if pos >= len then (List.rev acc, Clean, pos)
    else
      match decode_at ~parse bytes ~pos ~len with
      | Ok (r, next) -> go (r :: acc) next
      | Error Torn -> (List.rev acc, Torn_tail, pos)
      | Error Corrupt -> (List.rev acc, Corrupt_tail, pos)
  in
  go [] 0

let scan bytes = scan_from ~parse:parse_record bytes ~len:(Bytes.length bytes)
