(** Write-ahead log for durable transactions (DESIGN.md §13).

    Self-framing byte log + group-commit device + recovery replay.
    Commit records are redo-style under both engines: the [+lazy] write
    set is logged as-is; eager undo logs the write set's addresses
    paired with their post-transaction values at the serialization
    point.  Writes
    the capture analysis proved transaction-local appear in neither
    ([Stats.wal_skips]) — the paper's elision carried into the
    persistence layer.

    The device distinguishes *appended* (pending, would be lost by a
    crash) from *durable/acknowledged* (fsynced) bytes; crash-point
    faults exercise the boundary, including torn mid-record fsyncs. *)

exception Crashed
(** Raised at an injected crash-point ({!Fault.is_crash}): the simulated
    process dies on the spot and the run moves to recovery. *)

(** {1 Records and codec} *)

type record =
  | Commit of {
      seq : int;  (** 1-based commit serial, assigned by the device *)
      tid : int;
      writes : (int * int) array;  (** (addr, value) redo pairs *)
      allocs : (int * int * int array) array;
          (** (addr, carved size, payload image) per surviving
              transactional allocation *)
      frees : int array;  (** deferred frees performed at commit *)
    }
  | Raw of { addr : int; value : int }
      (** A non-transactional or private-elided store: immediately
          visible, survives aborts, so it is logged at the barrier. *)
  | Checkpoint of { seq : int; raws : int; snapshot : int array }
      (** Recovery root: commit/raw floors + {!Captured_tmem.Snapshot}
          encoding of memory and allocator state (runs of non-zero
          words, then the arenas). *)

val commit_record_words :
  writes:int -> allocs:(int * int * int array) array -> frees:int array -> int
(** Frame size of the commit record of [writes] redo pairs and these
    sets — lets the commit path charge WAL costs before touching the
    device. *)

val raw_record_words : int

val encode_record : record -> Bytes.t
(** [magic|kind; payload_len; payload...; checksum], 8 LE bytes/word,
    written into a [Bytes] of exactly the record's size. *)

type decode_error =
  | Torn  (** frame runs past the end of the input (interrupted fsync) *)
  | Corrupt  (** bad magic, structure, or checksum *)

val decode_record : Bytes.t -> pos:int -> (record * int, decode_error) result
(** Parse one record at [pos]; returns it and the position past it. *)

type tail = Clean | Torn_tail | Corrupt_tail

val scan : Bytes.t -> record list * tail * int
(** Decode front to back, stopping at the first torn/corrupt frame;
    returns records, tail state, and the byte offset where decoding
    stopped. *)

(** {1 Device} *)

type t

val create : ?group:int -> ?dir:string -> unit -> t
(** In-memory log device; [group] = records per group-commit fsync
    (default 4, [>= 1]).  With [dir], the durable prefix is mirrored to
    [<dir>/wal.log] (created fresh) so recovery works across
    processes. *)

val append_commit :
  ?group_commit:bool ->
  t ->
  tid:int ->
  writes:Write_set.t ->
  buffered:bool ->
  memory:Captured_tmem.Memory.t ->
  allocs:(int * int * int array) array ->
  frees:int array ->
  int * bool
(** Assigns the next commit [seq] and encodes the record straight into
    the pending buffer: [writes]' addresses in first-write order, each
    with its buffered value ([buffered], lazy versioning) or the word
    [memory] holds now (eager), the bytes {!encode_record} gives the
    [Commit] of those pairs.  Group-commits if due ([group_commit:false] suppresses the automatic
    sync — the torn-record fault uses it to guarantee the record is
    still pending when the crash tears it).  Returns (record bytes,
    whether this append fsynced).  No-op returning [(0, false)] on a
    crashed device. *)

val append_raw : t -> addr:int -> value:int -> int * bool

val sync : t -> unit
(** Force pending bytes durable (the final flush of a clean run). *)

val checkpoint : t -> Captured_tmem.Snapshot.image -> unit
(** Flush, append a checkpoint record of the image, fsync, truncate the
    log behind it.  The image is encoded straight from memory into the
    record ({!Captured_tmem.Snapshot.write_image}), byte for byte the
    {!encode_record} of a [Checkpoint] holding its encoding, and those
    bytes are kept as the first segment of the durable log; later syncs
    append behind it. *)

val checkpoint_torn : t -> Captured_tmem.Snapshot.image -> unit
(** [Fault.Crash_mid_checkpoint]'s effect: flush, then die halfway
    through the checkpoint record — the old log survives with a torn
    checkpoint tail and no truncation.  Leaves the device crashed. *)

val crash : t -> unit
(** Process death: pending (unacknowledged) bytes are lost. *)

val crash_torn : t -> cut:int -> unit
(** Process death tearing the last appended record: earlier pending
    bytes persist, plus [cut] bytes (clamped to [0, len-1]) of the last
    record.  Nothing becomes acknowledged. *)

val group : t -> int
val pending_records : t -> int

val synced_seq : t -> int
(** Highest *acknowledged* commit seq: recovery must never lose a
    commit [<= synced_seq]. *)

val synced_raws : t -> int

val log_bytes : t -> int
(** Durable prefix length now (drops at checkpoint truncation). *)

val appended_bytes : t -> int
(** Total bytes ever serialized (monotone; the WAL-volume metric). *)

val contents : t -> Bytes.t

(** {1 Recovery} *)

type recovery = {
  r_memory : Captured_tmem.Memory.t;
  r_arenas : Captured_tmem.Alloc.t array;
  r_floor_seq : int;  (** commits already inside the restored snapshot *)
  r_floor_raws : int;
  r_applied_seqs : int list;  (** commit records replayed, in log order *)
  r_raws_applied : int;
  r_records : int;  (** records scanned, checkpoints included *)
  r_torn : bool;
  r_corrupt : bool;
  r_freed : (int * int * int) list;
      (** (tid, addr, carved size) of each replayed deferred free *)
  r_wall_ms : float;
}

val recover_bytes : ?bug_apply_torn:bool -> Bytes.t -> (recovery, string) result
(** Scan → restore the last valid checkpoint → redo committed records →
    drop the torn/corrupt tail.  [bug_apply_torn] deliberately applies
    the torn tail's write pairs (a seeded recovery bug for the checker's
    ddmin self-test). *)

val recover : ?bug_apply_torn:bool -> t -> (recovery, string) result
(** {!recover_bytes} over the device's durable log, read in place: the
    checkpoint is restored straight from its record's bytes. *)

val recover_dir : ?bug_apply_torn:bool -> string -> (recovery, string) result
