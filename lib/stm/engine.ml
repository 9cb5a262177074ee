module Memory = Captured_tmem.Memory
module Tstack = Captured_tmem.Tstack
module Alloc = Captured_tmem.Alloc
module Platform = Captured_sim.Platform
module Sched = Captured_sim.Sched
module Prng = Captured_util.Prng
module Clock = Captured_util.Clock

type world = {
  memory : Memory.t;
  orecs : Orec.t;
  config : Config.t;
  nthreads : int;
  global_arena : Alloc.t;
  stacks : Tstack.t array;
  arenas : Alloc.t array;
  mutable wal : Wal.t option;
      (* Durable transactions: the world's write-ahead-log device, shared
         by every thread.  Attached explicitly ([attach_wal]) so the
         harness owns device lifetime and can recover from it after a
         simulated crash. *)
  reclaim : Reclaim.shared;
      (* Epoch-based reclamation: announcement slots + global epoch,
         one slot per logical thread. *)
}

let create ?(global_words = 1 lsl 18) ?(stack_words = 1 lsl 14)
    ?(arena_words = 1 lsl 18) ~nthreads config =
  if nthreads < 1 then invalid_arg "Engine.create: nthreads";
  let words =
    1 + global_words + (nthreads * (stack_words + arena_words))
  in
  let memory = Memory.create ~words in
  let orecs = Orec.over memory ~bits:config.Config.orec_bits in
  let global_arena = Alloc.create memory ~base:1 ~words:global_words in
  let stacks =
    Array.init nthreads (fun i ->
        Tstack.create memory
          ~base:(1 + global_words + (i * stack_words))
          ~words:stack_words)
  in
  let arenas =
    Array.init nthreads (fun i ->
        Alloc.create memory
          ~base:(1 + global_words + (nthreads * stack_words) + (i * arena_words))
          ~words:arena_words)
  in
  {
    memory;
    orecs;
    config;
    nthreads;
    global_arena;
    stacks;
    arenas;
    wal = None;
    reclaim = Reclaim.create_shared nthreads;
  }

(* Arena order used by snapshots and recovery: [global; arena 0; ...].
   [Wal.recover_bytes] maps a replayed thread-[tid] free to arena
   [min (tid+1) (len-1)], which under this ordering is exactly that
   thread's own arena ("freeing thread keeps it"). *)
let all_arenas w = Array.append [| w.global_arena |] w.arenas

let image w = Captured_tmem.Snapshot.image w.memory (all_arenas w)

let checkpoint w =
  match w.wal with
  | None -> ()
  | Some wal ->
      if Config.has_fault w.config Fault.Crash_mid_checkpoint then begin
        Wal.checkpoint_torn wal (image w);
        raise Wal.Crashed
      end
      else Wal.checkpoint wal (image w)

let attach_wal w wal =
  w.wal <- Some wal;
  (* Baseline checkpoint: recovery always has a root to restore, even if
     the run crashes before the first periodic checkpoint. *)
  Wal.checkpoint wal (image w)

let wal w = w.wal

let memory w = w.memory
let global_arena w = w.global_arena
let arena_of w i = w.arenas.(i)
let orecs w = w.orecs
let clock w = Orec.clock w.orecs

type result = {
  per_thread : Stats.t array;
  stats : Stats.t;
  makespan : int;
  wall : float;
  per_thread_wall : float array;
  resident_words : int;
}

(* Per-thread seed: the root stream with [tid] draws discarded.
   [Prng.jump] advances the splitmix state by [tid] golden-ratio steps in
   O(1) — bit-identical to the old discard loop, so recorded schedules
   replay unchanged, but thread 10k costs the same as thread 0. *)
let thread_seed seed tid =
  let root = Prng.create seed in
  Prng.jump root tid;
  Prng.bits root

let make_thread w ~tid ~platform ~seed =
  Txn.create_thread ~tid ~platform ~memory:w.memory ~stack:w.stacks.(tid)
    ~arena:w.arenas.(tid) ~orecs:w.orecs ~config:w.config
    ?wal:w.wal ~reclaim_shared:w.reclaim
    ~seed:(thread_seed seed tid) ()

(* End-of-run limbo flush: every fiber has finished / every domain has
   joined, so the world is provably quiescent and the remaining limbo
   entries can be released unconditionally — into the retiring thread's
   own arena (slot = tid), as a drain would.  No limbo block outlives a
   run, so leak checks and post-run checkpoints never see one. *)
let flush_limbo w =
  Array.iteri
    (fun tid h ->
      match h with
      | None -> ()
      | Some r ->
          ignore
            (Reclaim.flush r
               ~free:(fun ~addr ~size:_ -> Alloc.free w.arenas.(tid) addr)
              : int))
    (Reclaim.handles w.reclaim)

let collect w threads makespan wall per_thread_wall =
  let per_thread = Array.map Txn.thread_stats threads in
  {
    per_thread;
    stats = Stats.sum (Array.to_list per_thread);
    makespan;
    wall;
    per_thread_wall;
    resident_words = Memory.resident_words w.memory;
  }

let run_sim ?control ?max_cycles ?(seed = 42) w body =
  let threads = Array.make w.nthreads None in
  let fibers =
    Array.init w.nthreads (fun tid ctx ->
        let platform = Platform.simulated ctx in
        let th = make_thread w ~tid ~platform ~seed in
        threads.(tid) <- Some th;
        (* Stagger thread starts: symmetric workloads would otherwise run
           in perfect (deterministic) lockstep that real machines never
           exhibit. *)
        platform.Platform.consume (tid * 53);
        body th)
  in
  let (sim, wall) =
    Clock.time (fun () -> Sched.run ?control ?max_cycles ~threads:fibers ())
  in
  let threads =
    Array.map (function Some th -> th | None -> assert false) threads
  in
  flush_limbo w;
  collect w threads (Sched.makespan sim) wall (Array.make w.nthreads 0.)

let run_native ?(seed = 42) w body =
  let n = w.nthreads in
  (* Each domain builds its own thread context (descriptor, logs and PRNG
     land on that domain's minor heap, not the spawner's) and clocks its
     own work.  Slot [tid] is written by exactly one domain and read only
     after [Domain.join], which gives the happens-before that makes the
     collection race-free. *)
  let slots = Array.make n None in
  let run tid =
    let th = make_thread w ~tid ~platform:Platform.native ~seed in
    let ((), thread_wall) = Clock.time (fun () -> body th) in
    slots.(tid) <- Some (th, thread_wall)
  in
  let ((), wall) =
    Clock.time (fun () ->
        if n = 1 then run 0
        else begin
          let domains =
            Array.init (n - 1) (fun i -> Domain.spawn (fun () -> run (i + 1)))
          in
          run 0;
          Array.iter Domain.join domains
        end)
  in
  let threads =
    Array.map
      (function Some (th, _) -> th | None -> assert false)
      slots
  in
  flush_limbo w;
  let per_thread_wall =
    Array.map (function Some (_, tw) -> tw | None -> assert false) slots
  in
  (* Wall-derived makespan (nanoseconds): the slowest domain's own span,
     the native analogue of the simulator's largest virtual finish time. *)
  let makespan =
    int_of_float (1e9 *. Array.fold_left max 0. per_thread_wall)
  in
  collect w threads makespan wall per_thread_wall

let setup_thread ?(seed = 42) w =
  make_thread w ~tid:0 ~platform:Platform.native ~seed
