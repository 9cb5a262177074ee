module Config = Captured_stm.Config
module Engine = Captured_stm.Engine
module Txn = Captured_stm.Txn
module Memory = Captured_tmem.Memory
module Alloc = Captured_tmem.Alloc
module Site = Captured_core.Site
module Prng = Captured_util.Prng
module App = Captured_apps.App
module Registry = Captured_apps.Registry

type t = {
  name : string;
  nthreads : int;
  reclaim_oracle : bool;
      (* Arm the oracle's use-after-free rule even without [Config.ebr]:
         set by workloads whose frees deliberately race readers.  App
         workloads leave it off — their frees are coordinated by the
         application, a guarantee the no-EBR engine never made. *)
  prepare : Config.t -> App.prepared;
}

(* Micro worlds are tiny on purpose: the harness snapshots all of memory
   before every run and replays thousands of schedules.  The orec table
   is shrunk to match (1024 records cover a few dozen live addresses
   collision-free and make world setup cheap per schedule). *)
let small_world ~nthreads config =
  Engine.create ~global_words:1024 ~stack_words:256 ~arena_words:1024
    ~nthreads
    { config with Config.orec_bits = 10 }

(* Shared counter: the minimal lost-update workload — one cell, read-
   modify-write transactions racing from every thread. *)
let counter ~nthreads ~incs =
  {
    name = Printf.sprintf "counter-%dx%d" nthreads incs;
    nthreads;
    reclaim_oracle = false;
    prepare =
      (fun config ->
        let world = small_world ~nthreads config in
        let cell = Alloc.alloc (Engine.global_arena world) 1 in
        let body th =
          for _ = 1 to incs do
            Txn.atomic th (fun tx -> Txn.write tx cell (Txn.read tx cell + 1))
          done
        in
        let verify () =
          let v = Memory.get (Engine.memory world) cell in
          let expect = nthreads * incs in
          if v = expect then Ok ()
          else Error (Printf.sprintf "counter holds %d, expected %d" v expect)
        in
        { App.world; body; verify });
  }

(* Bank transfers: multi-address invariants (the sum is conserved) plus
   user aborts on insufficient funds. *)
let bank ~nthreads ~accounts ~transfers =
  {
    name = Printf.sprintf "bank-%dx%d" nthreads transfers;
    nthreads;
    reclaim_oracle = false;
    prepare =
      (fun config ->
        let world = small_world ~nthreads config in
        let mem = Engine.memory world in
        let base = Alloc.alloc (Engine.global_arena world) accounts in
        for i = 0 to accounts - 1 do
          Memory.set mem (base + i) 100
        done;
        let body th =
          let g = Txn.thread_prng th in
          for _ = 1 to transfers do
            let src = base + Prng.int g accounts in
            let dst = base + Prng.int g accounts in
            let amount = 1 + Prng.int g 150 in
            try
              Txn.atomic th (fun tx ->
                  let s = Txn.read tx src in
                  if s < amount then Txn.abort tx;
                  Txn.write tx src (s - amount);
                  if dst <> src then
                    Txn.write tx dst (Txn.read tx dst + amount)
                  else Txn.write tx dst s)
            with Txn.User_abort -> ()
          done
        in
        let verify () =
          let sum = ref 0 in
          for i = 0 to accounts - 1 do
            sum := !sum + Memory.get mem (base + i)
          done;
          let expect = 100 * accounts in
          if !sum = expect then Ok ()
          else Error (Printf.sprintf "bank sum %d, expected %d" !sum expect)
        in
        { App.world; body; verify });
  }

(* Publish: each thread builds list nodes transactionally — allocation
   plus initialising writes the capture analysis elides — and links them
   into a shared stack.  The paper's captured-memory claim end to end:
   elided initialisation must never be observable half-done. *)
let publish ~nthreads ~nodes =
  {
    name = Printf.sprintf "publish-%dx%d" nthreads nodes;
    nthreads;
    reclaim_oracle = false;
    prepare =
      (fun config ->
        let world = small_world ~nthreads config in
        let mem = Engine.memory world in
        let head = Alloc.alloc (Engine.global_arena world) 1 in
        let body th =
          let tid = Txn.thread_id th in
          for i = 1 to nodes do
            Txn.atomic th (fun tx ->
                let n = Txn.alloc tx 2 in
                Txn.write tx n ((100 * tid) + i);
                Txn.write tx (n + 1) (Txn.read tx head);
                Txn.write tx head n)
          done
        in
        let verify () =
          (* Walk the stack: every pushed value exactly once. *)
          let seen = Hashtbl.create 16 in
          let rec walk addr count =
            if addr = 0 then Ok count
            else if count > nthreads * nodes then Error "list cycle"
            else begin
              let v = Memory.get mem addr in
              if Hashtbl.mem seen v then
                Error (Printf.sprintf "duplicate value %d" v)
              else begin
                Hashtbl.add seen v ();
                walk (Memory.get mem (addr + 1)) (count + 1)
              end
            end
          in
          match walk (Memory.get mem head) 0 with
          | Error m -> Error m
          | Ok count ->
              if count <> nthreads * nodes then
                Error
                  (Printf.sprintf "found %d nodes, expected %d" count
                     (nthreads * nodes))
              else if
                not
                  (List.for_all
                     (fun tid ->
                       List.for_all
                         (fun i -> Hashtbl.mem seen ((100 * tid) + i))
                         (List.init nodes (fun i -> i + 1)))
                     (List.init nthreads Fun.id))
              then Error "missing node value"
              else Ok ()
        in
        { App.world; body; verify });
  }

(* Scoped: closed nesting with partial aborts — every other iteration a
   nested scope writes and then user-aborts, which must leave no trace. *)
let scoped ~nthreads ~incs =
  {
    name = Printf.sprintf "scoped-%dx%d" nthreads incs;
    nthreads;
    reclaim_oracle = false;
    prepare =
      (fun config ->
        let world = small_world ~nthreads config in
        let cell = Alloc.alloc (Engine.global_arena world) 1 in
        let body th =
          for i = 1 to incs do
            Txn.atomic th (fun tx ->
                let v = Txn.read tx cell in
                (try
                   Txn.atomic th (fun tx ->
                       Txn.write tx cell (v + 1000);
                       if i mod 2 = 0 then Txn.abort tx)
                 with Txn.User_abort -> ());
                let v' = Txn.read tx cell in
                Txn.write tx cell (v' + 1))
          done
        in
        let verify () =
          let v = Memory.get (Engine.memory world) cell in
          (* Per iteration: +1, plus +1000 when the nested scope commits
             (odd i).  Deterministic across schedules. *)
          let per_thread = incs + (1000 * ((incs + 1) / 2)) in
          let expect = nthreads * per_thread in
          if v = expect then Ok ()
          else Error (Printf.sprintf "scoped holds %d, expected %d" v expect)
        in
        { App.world; body; verify });
  }

(* Zombies: a reader spins on a condition only an inconsistent snapshot
   can satisfy.  The writer bumps [a] and [b] together in one
   transaction, so every consistent view has a = b; a reader that
   observes a <> b is a zombie and enters a [spin] loop that a sound
   engine aborts within a few hundred iterations.  Every explored
   schedule must terminate.  A zombie that survives [zombie_spins]
   iterations marks a raw cell (no undo rolls it back), bails out — the
   sandbox turns the exception into a retry — and fails [verify]: a
   reported violation, not a hung sweep (once the writer finishes, the
   spin has no scheduling point to exhaust the step budget at).  Fault
   sweeps exclude these workloads — the injected faults break exactly
   the validation machinery that bounds the spin. *)
let zombie_spins = 10_000

let zombie ~name ~fuel ~spin ~nthreads ~rounds =
  {
    name = Printf.sprintf "%s-%dx%d" name nthreads rounds;
    nthreads;
    reclaim_oracle = false;
    prepare =
      (fun config ->
        let config =
          if fuel = 0 || config.Config.fuel > 0 then config
          else Config.with_fuel fuel config
        in
        let world = small_world ~nthreads config in
        let arena = Engine.global_arena world in
        let a = Alloc.alloc arena 1 in
        (* Spacer: keep [a] and [b] on different conflict-detection
           lines (hence different orecs), so the zombie's second read is
           a genuinely separate orec observation. *)
        let _spacer = Alloc.alloc arena 8 in
        let b = Alloc.alloc arena 1 in
        let escaped = Alloc.alloc arena 1 in
        let mem = Engine.memory world in
        let body th =
          if Txn.thread_id th = 0 then
            for _ = 1 to rounds do
              Txn.atomic th (fun tx ->
                  Txn.write tx a (Txn.read tx a + 1);
                  Txn.tx_work tx 30;
                  Txn.write tx b (Txn.read tx b + 1))
            done
          else
            for _ = 1 to rounds do
              Txn.atomic th (fun tx ->
                  let x = Txn.read tx a in
                  Txn.tx_work tx 10;
                  let y = Txn.read tx b in
                  if x <> y then begin
                    (* Unreachable from a consistent snapshot. *)
                    for _ = 1 to zombie_spins do
                      spin tx b
                    done;
                    Memory.set mem escaped 1;
                    raise Exit
                  end)
            done
        in
        let verify () =
          let va = Memory.get mem a and vb = Memory.get mem b in
          if Memory.get mem escaped <> 0 then
            Error
              (Printf.sprintf "a zombie survived %d spins unvalidated"
                 zombie_spins)
          else if va = rounds && vb = rounds then Ok ()
          else
            Error
              (Printf.sprintf "zombie cells (%d, %d), expected (%d, %d)" va vb
                 rounds rounds)
        in
        { App.world; body; verify });
  }

(* The spin is [tx_work], which the periodic validate-every guard never
   reaches (it only runs in read/write barriers): only the
   validation-fuel budget bounds it, so [prepare] arms a small one. *)
let zombie_loop =
  zombie ~name:"zombie" ~fuel:384 ~spin:(fun tx _ -> Txn.tx_work tx 25)

(* The spin re-reads [b], with fuel left as the config has it (off by
   default).  Under the Scan clock the zombie's read of [b] was logged
   unchecked, and memory keeps the logged value, so every re-read is
   forwarded from the read log: only the periodic guard, which forwarded
   reads still count toward, bounds the spin. *)
let zombie_reread =
  zombie ~name:"zombie_reread" ~fuel:0 ~spin:(fun tx b ->
      ignore (Txn.read tx b : int))

(* Re-read: read-after-read forwarding under concurrent commits.  Cells
   [a] and [b] share a conflict-detection line (one orec), [c] sits two
   lines on; the writer (thread 0) keeps b = 2a and c = 3a, so the three
   values are distinct and a read answered for the wrong address breaks
   the invariant.  Readers read a and c, leave a window for a commit,
   then re-read a (forwarded from its read-log entry), read line-mate b
   (which takes over the entry's forwarding pair), re-read c and b
   (forwarded) and a (full path: the entry now names b).
   Every other round a reader also writes what it saw, so both the
   read-only fast path and writer commit validation run over forwarded
   reads.  The oracle holds every committed snapshot to the invariant;
   the sweep fails a cell that never forwarded a read. *)
let reread ~nthreads ~rounds =
  {
    name = Printf.sprintf "reread-%dx%d" nthreads rounds;
    nthreads;
    reclaim_oracle = false;
    prepare =
      (fun config ->
        let world = small_world ~nthreads config in
        let arena = Engine.global_arena world in
        let line = Captured_stm.Orec.line_words in
        let block = Alloc.alloc arena (4 * line) in
        let a = (block + line - 1) land lnot (line - 1) in
        let b = a + 1 and c = a + (2 * line) in
        let seen = Alloc.alloc arena nthreads in
        let body th =
          let tid = Txn.thread_id th in
          if tid = 0 then
            for _ = 1 to rounds do
              Txn.atomic th (fun tx ->
                  Txn.write tx a (Txn.read tx a + 1);
                  Txn.write tx b (Txn.read tx b + 2);
                  Txn.write tx c (Txn.read tx c + 3))
            done
          else
            for r = 1 to rounds do
              Txn.atomic th (fun tx ->
                  let a1 = Txn.read tx a in
                  let c1 = Txn.read tx c in
                  Txn.tx_work tx 10;
                  let a2 = Txn.read tx a in
                  let b1 = Txn.read tx b in
                  let c2 = Txn.read tx c in
                  let b2 = Txn.read tx b in
                  let a3 = Txn.read tx a in
                  if r land 1 = 0 then
                    Txn.write tx (seen + tid) (a1 + a2 + a3 + b1 + b2 + c1 + c2));
              Txn.work th 3
            done
        in
        let verify () =
          let mem = Engine.memory world in
          let va = Memory.get mem a
          and vb = Memory.get mem b
          and vc = Memory.get mem c in
          let torn =
            (* A consistent snapshot sums to 13a; zero if never written. *)
            List.find_opt
              (fun tid -> Memory.get mem (seen + tid) mod 13 <> 0)
              (List.init (nthreads - 1) (fun i -> i + 1))
          in
          if (va, vb, vc) <> (rounds, 2 * rounds, 3 * rounds) then
            Error
              (Printf.sprintf "reread cells (%d, %d, %d), expected (%d, %d, %d)"
                 va vb vc rounds (2 * rounds) (3 * rounds))
          else
            match torn with
            | Some tid ->
                Error
                  (Printf.sprintf "reader %d committed the torn sum %d" tid
                     (Memory.get mem (seen + tid)))
            | None -> Ok ()
        in
        { App.world; body; verify });
  }

(* Vacuity floor, in the one place that knows which workload exists to
   forward reads: a [reread] cell that forwarded none proved nothing. *)
let min_forwarded w =
  if String.starts_with ~prefix:"reread-" w.name then 1 else 0

(* Free race: the reclamation hazard end to end.  Thread 0 publishes a
   fresh node, retracts it with a deferred [Txn.free], then immediately
   allocates the same size class — without [+ebr] the LIFO free list
   hands back the very block it just freed, recarving (header rewrite +
   zeroing) memory a racing reader obtained a pointer to before the
   retraction.  None of those allocator stores bumps an orec, so no
   validation discipline catches the reader; only the oracle's
   use-after-free rule (armed via [reclaim_oracle]) flags it.  With
   [+ebr] the freed block sits in limbo past every reader's attempt and
   the recycler carves from the wilderness instead. *)
let free_race ~nthreads ~rounds =
  {
    name = Printf.sprintf "free_race-%dx%d" nthreads rounds;
    nthreads;
    reclaim_oracle = true;
    prepare =
      (fun config ->
        let world = small_world ~nthreads config in
        let arena = Engine.global_arena world in
        let ptr = Alloc.alloc arena 1 in
        let sink = Alloc.alloc arena 1 in
        let body th =
          if Txn.thread_id th = 0 then
            for r = 1 to rounds do
              (* Publish a fresh 2-word node. *)
              Txn.atomic th (fun tx ->
                  let n = Txn.alloc tx 2 in
                  Txn.write tx n (7000 + r);
                  Txn.write tx (n + 1) (8000 + r);
                  Txn.write tx ptr n);
              Txn.work th 8;
              (* Retract it: the free is deferred to this commit. *)
              Txn.atomic th (fun tx ->
                  let p = Txn.read tx ptr in
                  if p <> 0 then begin
                    Txn.write tx ptr 0;
                    Txn.free tx p
                  end);
              (* Recycle: same size class, so without EBR this pops the
                 block freed one commit ago. *)
              Txn.atomic th (fun tx ->
                  let m = Txn.alloc tx 2 in
                  Txn.write tx m 9999;
                  Txn.write tx (m + 1) 9999;
                  Txn.write tx sink m)
            done
          else
            for _ = 1 to rounds do
              Txn.atomic th (fun tx ->
                  let p = Txn.read tx ptr in
                  if p <> 0 then begin
                    (* Window between taking the pointer and the
                       dereference — room for retract + recycle. *)
                    Txn.tx_work tx 12;
                    ignore (Txn.read tx p : int);
                    ignore (Txn.read tx (p + 1) : int)
                  end);
              Txn.work th 3
            done
        in
        let verify () =
          let mem = Engine.memory world in
          if rounds = 0 then Ok ()
          else
            let s = Memory.get mem sink in
            if s = 0 then Error "free_race: no recycled block published"
            else if Memory.get mem s <> 9999 then
              Error
                (Printf.sprintf "free_race: recycled block holds %d"
                   (Memory.get mem s))
            else Ok ()
        in
        { App.world; body; verify });
  }

(* Privatize race: the quiescence fence end to end.  Thread 0 detaches
   the shared block transactionally, calls [Txn.privatize] and mutates
   it with raw (uninstrumented) stores; the other threads run
   speculative writers that dirty the block in place (eager versioning)
   and always user-abort.  Without [+ebr] the fence is a no-op, so a
   raw store can land between a writer's in-place dirty write and its
   undo — the rollback then clobbers the privatizer's update (or the
   raw read sees dirty state), and the final tally misses increments:
   app-verify red.  With [+ebr], [quiesce] outwaits every attempt that
   could still reach the block (the detach already hides it from new
   ones), so each round's increment survives: deterministic green. *)
let privatize_race ~nthreads ~rounds =
  {
    name = Printf.sprintf "privatize_race-%dx%d" nthreads rounds;
    nthreads;
    reclaim_oracle = true;
    prepare =
      (fun config ->
        let world = small_world ~nthreads config in
        let arena = Engine.global_arena world in
        let mem = Engine.memory world in
        let ptr = Alloc.alloc arena 1 in
        let result = Alloc.alloc arena 1 in
        let block = Alloc.alloc arena 2 in
        Memory.set mem ptr block;
        let body th =
          if Txn.thread_id th = 0 then begin
            for _ = 1 to rounds do
              let p =
                Txn.atomic th (fun tx ->
                    let p = Txn.read tx ptr in
                    Txn.write tx ptr 0;
                    p)
              in
              if p <> 0 then begin
                Txn.privatize th ~addr:p ~size:2;
                Txn.raw_write th p (Txn.raw_read th p + 1);
                Txn.remove_private_block th ~addr:p ~size:2;
                Txn.atomic th (fun tx -> Txn.write tx ptr p)
              end
            done;
            (* Tear down: tally the block, then free it (a deferred
               free, so reclaim sweeps always exercise one). *)
            Txn.atomic th (fun tx ->
                let p = Txn.read tx ptr in
                if p <> 0 then begin
                  Txn.write tx result (Txn.read tx p);
                  Txn.write tx ptr 0;
                  Txn.free tx p
                end)
          end
          else
            for _ = 1 to rounds do
              (try
                 Txn.atomic th (fun tx ->
                     let p = Txn.read tx ptr in
                     if p <> 0 then begin
                       (* Dirty the block in place, linger, roll back. *)
                       Txn.write tx p (Txn.read tx p + 100);
                       Txn.tx_work tx 25
                     end;
                     Txn.abort tx)
               with Txn.User_abort -> ());
              Txn.work th 5
            done
        in
        let verify () =
          let v = Memory.get mem result in
          if v = rounds then Ok ()
          else
            Error
              (Printf.sprintf
                 "privatize_race: %d increments survived of %d" v rounds)
        in
        { App.world; body; verify });
  }

let micros ~nthreads =
  [
    counter ~nthreads ~incs:4;
    bank ~nthreads ~accounts:4 ~transfers:3;
    publish ~nthreads ~nodes:3;
    scoped ~nthreads ~incs:2;
    zombie_loop ~nthreads ~rounds:3;
    zombie_reread ~nthreads ~rounds:3;
    reread ~nthreads ~rounds:3;
  ]

(* Kept out of [micros]: without [+ebr] these are red by design (they
   demonstrate the hazard), so the default sweeps must not inherit
   them.  Reclaim sweeps name them explicitly (or use both lists). *)
let reclaim_micros ~nthreads =
  [ free_race ~nthreads ~rounds:3; privatize_race ~nthreads ~rounds:2 ]

(* STAMP app adapter: same verdict-loading dispatch as [App.run]. *)
let of_app ?(scale = App.Test) app ~nthreads =
  {
    name = app.App.name;
    nthreads;
    reclaim_oracle = false;
    prepare =
      (fun config ->
        (match config.Config.analysis with
        | Config.Compiler -> App.load_verdicts app
        | Config.Runtime _ when config.Config.static_filter ->
            App.load_verdicts app
        | Config.Baseline | Config.Runtime _ -> Site.reset_verdicts ());
        app.App.prepare ~nthreads ~scale config);
  }

let find name ~nthreads =
  let micro_matches w =
    (* Accept "counter" for "counter-2x3" — the parameters are fixed. *)
    w.name = name
    || String.length w.name > String.length name
       && String.sub w.name 0 (String.length name + 1) = name ^ "-"
  in
  match
    List.find_opt micro_matches (micros ~nthreads @ reclaim_micros ~nthreads)
  with
  | Some w -> Some w
  | None -> (
      match Registry.find name with
      | Some app -> Some (of_app app ~nthreads)
      | None -> None)
