module Padding = Captured_util.Padding

(* Epoch-based reclamation for the transactional allocator.

   The free call itself stays where it was (commit of the freeing
   transaction); what this module gates is *reuse*.  A committed free is
   pushed onto the freeing thread's limbo list stamped with the global
   epoch, and only returns to the arena free lists once two grace
   periods have elapsed — by which point every transaction attempt that
   could have read a pre-free pointer has begun and ended.

   Epoch protocol (classic EBR, adapted to announce-on-begin):

   - Each thread owns one cache-line-padded announcement slot encoding
     [(epoch lsl 1) lor active]: the active bit says a transaction
     attempt is in flight, the epoch field is the global epoch the
     thread last observed.
   - The global epoch advances (single CAS) only when every *active*
     slot has observed the current value; quiescent threads never block
     advancement.
   - A limbo entry pushed at epoch [e] is reclaimable once the global
     epoch reaches [e + 2].  Two periods, not one: a reader active when
     the free committed announced some [e_r <= e], so the global can
     reach at most [e + 1] while it runs — its stale announcement blocks
     the advance to [e + 2], which is exactly the fence the reclaimer
     waits behind.

   The module is pure bookkeeping: no simulated-cost consumption and no
   scheduling points live here (the [Txn] hooks own those), so the
   structure behaves identically under the deterministic simulator and
   the native multicore engine.  All shared state is padded atomics —
   one line per announcement slot, one for the global epoch — so the
   native backend's CAS/store traffic never false-shares (DESIGN.md
   §10). *)

type shared = {
  slots : int Atomic.t array;  (** per-thread [(epoch lsl 1) lor active] *)
  global : int Atomic.t;
  nslots : int;
  handles : t option array;  (** slot-indexed, for the engine's end-of-run flush *)
}

and t = {
  shared : shared;
  slot : int;
  mutable addrs : int array;
  mutable sizes : int array;
  mutable epochs : int array;
  mutable head : int;  (* oldest live limbo entry *)
  mutable tail : int;  (* one past the newest *)
  mutable words : int;  (* payload words currently in limbo *)
}

let initial_epoch = 1

let create_shared nslots =
  if nslots <= 0 then invalid_arg "Reclaim.create_shared";
  {
    slots = Padding.padded_table nslots (initial_epoch lsl 1);
    global = Padding.padded_atomic initial_epoch;
    nslots;
    handles = Array.make nslots None;
  }

let handle shared ~slot =
  if slot < 0 || slot >= shared.nslots then invalid_arg "Reclaim.handle";
  let t =
    {
      shared;
      slot;
      addrs = Array.make 8 0;
      sizes = Array.make 8 0;
      epochs = Array.make 8 0;
      head = 0;
      tail = 0;
      words = 0;
    }
  in
  shared.handles.(slot) <- Some t;
  t

let handles shared = shared.handles
let shared_of t = t.shared
let global_epoch shared = Atomic.get shared.global

let announce t =
  Atomic.set t.shared.slots.(t.slot)
    ((Atomic.get t.shared.global lsl 1) lor 1)

let announce_quiescent t =
  Atomic.set t.shared.slots.(t.slot) (Atomic.get t.shared.global lsl 1)

(* Advance is permission-checked against *active* slots only: a thread
   parked outside any transaction must not stall reclamation on its
   peers (the long-running-reader scenario this layer exists for is
   in-flight readers, which are active by definition). *)
let try_advance shared =
  let g = Atomic.get shared.global in
  let ok = ref true in
  for i = 0 to shared.nslots - 1 do
    let s = Atomic.get shared.slots.(i) in
    if s land 1 = 1 && s lsr 1 <> g then ok := false
  done;
  !ok && Atomic.compare_and_set shared.global g (g + 1)

let ensure_space t =
  let cap = Array.length t.addrs in
  if t.tail = cap then
    if t.head > 0 then begin
      (* Compact: live entries slide to the front. *)
      let n = t.tail - t.head in
      Array.blit t.addrs t.head t.addrs 0 n;
      Array.blit t.sizes t.head t.sizes 0 n;
      Array.blit t.epochs t.head t.epochs 0 n;
      t.head <- 0;
      t.tail <- n
    end
    else begin
      let grow a =
        let b = Array.make (2 * cap) 0 in
        Array.blit a 0 b 0 cap;
        b
      in
      t.addrs <- grow t.addrs;
      t.sizes <- grow t.sizes;
      t.epochs <- grow t.epochs
    end

let retire t ~addr ~size =
  ensure_space t;
  t.addrs.(t.tail) <- addr;
  t.sizes.(t.tail) <- size;
  t.epochs.(t.tail) <- Atomic.get t.shared.global;
  t.tail <- t.tail + 1;
  t.words <- t.words + size

let pending t = t.tail - t.head
let pending_words t = t.words

(* FIFO drain: entries were pushed in epoch order, so the first
   still-too-young entry ends the sweep. *)
let drain t ~free =
  let g = Atomic.get t.shared.global in
  let n = ref 0 in
  while t.head < t.tail && t.epochs.(t.head) + 2 <= g do
    free ~addr:t.addrs.(t.head) ~size:t.sizes.(t.head);
    t.words <- t.words - t.sizes.(t.head);
    t.head <- t.head + 1;
    incr n
  done;
  if t.head = t.tail then begin
    t.head <- 0;
    t.tail <- 0
  end;
  !n

(* Unconditional drain for a provably quiescent point (engine end of
   run, after every fiber has finished / every domain has joined), so
   leak checks and checkpoints never see a limbo block. *)
let flush t ~free =
  let n = ref 0 in
  while t.head < t.tail do
    free ~addr:t.addrs.(t.head) ~size:t.sizes.(t.head);
    t.words <- t.words - t.sizes.(t.head);
    t.head <- t.head + 1;
    incr n
  done;
  t.head <- 0;
  t.tail <- 0;
  !n
