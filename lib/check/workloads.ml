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
  floors : Signal.t list;
      (* Vacuity floors, set by the workload that exists to exercise the
         path: a sweep cell that records none of a listed signal proved
         nothing about it. *)
  prepare : Config.t -> App.prepared;
}

(* A micro workload, named [base-NxM] for its thread count and size. *)
let micro ?(reclaim_oracle = false) ?(floors = []) base ~nthreads n prepare =
  {
    name = Printf.sprintf "%s-%dx%d" base nthreads n;
    nthreads;
    reclaim_oracle;
    floors;
    prepare;
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
  micro "counter" ~nthreads incs (fun config ->
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
      { App.world; body; verify })

(* Bank transfers: multi-address invariants (the sum is conserved) plus
   user aborts on insufficient funds. *)
let bank ~nthreads ~accounts ~transfers =
  micro "bank" ~nthreads transfers (fun config ->
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
      { App.world; body; verify })

(* Publish: each thread builds list nodes transactionally — allocation
   plus initialising writes the capture analysis elides — and links them
   into a shared stack.  The paper's captured-memory claim end to end:
   elided initialisation must never be observable half-done. *)
let publish ~nthreads ~nodes =
  micro "publish" ~nthreads nodes (fun config ->
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
      { App.world; body; verify })

(* Scoped: closed nesting with partial aborts — every other iteration a
   nested scope writes and then user-aborts, which must leave no trace. *)
let scoped ~nthreads ~incs =
  micro "scoped" ~nthreads incs (fun config ->
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
      { App.world; body; verify })

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

let zombie ~name ~spin ~nthreads ~rounds =
  micro name ~nthreads rounds (fun config ->
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
      { App.world; body; verify })

(* Re-read: read-after-read forwarding under concurrent commits.  Cells
   [a] and [b] share a conflict-detection line (one orec), [c] sits two
   lines on; the writer (thread 0) keeps b = 2a and c = 3a, so the three
   values are distinct and a read answered for the wrong address breaks
   the invariant.  Readers read a and c, leave a window for a commit,
   then re-read a (forwarded from its read-log entry), read line-mate b
   (which takes over the entry's forwarding pair), re-read c and b
   (forwarded) and a (a line-mate read again: the entry now names b).
   Every other round a reader also writes what it saw, so both the
   read-only fast path and writer commit validation run over forwarded
   and line-mate reads.  The oracle holds every committed snapshot to
   the invariant; the sweep fails a cell that never forwarded a read or
   never proved a line-mate read by its logged word. *)
let reread ~nthreads ~rounds =
  micro "reread" ~floors:[ Signal.forwarded; Signal.line_mate ] ~nthreads
    rounds (fun config ->
      let world = small_world ~nthreads config in
      let arena = Engine.global_arena world in
      let line = Captured_stm.Orec.line_words in
      let block = Alloc.alloc arena (4 * line) in
      (* An array block: [a] and [b] share a 4-word line. *)
      assert (
        Captured_stm.Orec.line_words_at (Engine.orecs world) block = line);
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
      { App.world; body; verify })

(* Line-mates: value-checked validation under concurrent commits.  Each
   thread read-modify-writes its own word of one conflict-detection line
   (one orec) together with [sum], on another line, which counts every
   increment.  Between its writes a thread reads a word of the line,
   leaves a window for a commit, reads [sum] and records what it saw (a
   writing commit, so commit-time validation runs under both clocks).
   Round 1 (mod 3) reads its own word, which only it writes: a peer's
   commit moves the orec but not the word, and validation rescues the
   entry instead of aborting.  Round 2 reads the next thread's word,
   which a peer's commit does change: that entry must fail, or the
   attempt pairs an old word with a new [sum], which the oracle flags
   ([Fault.Blind_rescue] is exactly that).  Round 3 reads the next
   thread's word and then its own: the entry's logged pair is the
   unchanged own word, and only the entry's several-addresses mark keeps
   validation from rescuing the changed one.  The sweep fails a cell
   that rescued nothing, or read no line-mate under its logged word. *)
let linemate ~nthreads ~rounds =
  micro "linemate" ~floors:[ Signal.rescued; Signal.line_mate ] ~nthreads
    rounds (fun config ->
      let world = small_world ~nthreads config in
      let arena = Engine.global_arena world in
      let line = Captured_stm.Orec.line_words in
      let block = Alloc.alloc arena (4 * line) in
      (* An array block: the threads' words share a 4-word line. *)
      assert (
        Captured_stm.Orec.line_words_at (Engine.orecs world) block = line);
      let base = (block + line - 1) land lnot (line - 1) in
      let word t = base + (t mod line) in
      let sum = base + (2 * line) in
      (* One line per thread: the records are not what is under test. *)
      let seen = Alloc.alloc arena (nthreads * line) in
      let body th =
        let tid = Txn.thread_id th in
        for r = 1 to rounds do
          Txn.atomic th (fun tx ->
              Txn.write tx (word tid) (Txn.read tx (word tid) + 1);
              Txn.write tx sum (Txn.read tx sum + 1));
          Txn.atomic th (fun tx ->
              let v =
                match r mod 3 with
                | 1 -> Txn.read tx (word tid)
                | 2 -> Txn.read tx (word (tid + 1))
                | _ ->
                    let m = Txn.read tx (word (tid + 1)) in
                    m + Txn.read tx (word tid)
              in
              Txn.tx_work tx 10;
              Txn.write tx (seen + (tid * line)) (v + Txn.read tx sum))
        done
      in
      let verify () =
        let mem = Engine.memory world in
        let total =
          List.fold_left ( + ) 0
            (List.init (min nthreads line) (fun t -> Memory.get mem (word t)))
        in
        let expect = nthreads * rounds in
        if total = expect && Memory.get mem sum = expect then Ok ()
        else
          Error
            (Printf.sprintf "linemate words total %d, sum %d, expected %d"
               total (Memory.get mem sum) expect)
      in
      { App.world; body; verify })

(* Record mix: the two conflict granules side by side.  A 4-word record
   (one orec per word) and a 16-word array (one orec per 4-word line)
   are carved back to back.  Thread [t] read-modify-writes record words
   [t] and [t + 1] (mod 4), adjacent words on separate orecs that its
   neighbours also write, and adds 2 to word [t] of the array's first
   line, whose words share one orec; so every commit adds 2 to both
   sums.  Every other round a thread also reads the whole record and the
   whole line and records the difference of their sums, which any
   consistent snapshot holds at 0.  A lost update on a record word (a
   skipped validation) breaks the sums; a false conflict on the line
   only costs an abort. *)
let recordmix ~nthreads ~rounds =
  micro "recordmix" ~nthreads rounds (fun config ->
      let world = small_world ~nthreads config in
      let arena = Engine.global_arena world in
      let orecs = Engine.orecs world in
      let line = Captured_stm.Orec.line_words in
      let record = Alloc.alloc arena line in
      let array = Alloc.alloc arena (4 * line) in
      assert (Captured_stm.Orec.line_words_at orecs record = 1);
      assert (Captured_stm.Orec.line_words_at orecs array = line);
      let seen = Alloc.alloc arena nthreads in
      let sum tx base =
        List.fold_left (fun acc k -> acc + Txn.read tx (base + k)) 0
          (List.init line Fun.id)
      in
      let body th =
        let tid = Txn.thread_id th in
        let i = record + (tid mod line)
        and j = record + ((tid + 1) mod line)
        and l = array + (tid mod line) in
        for r = 1 to rounds do
          Txn.atomic th (fun tx ->
              let a = Txn.read tx i and b = Txn.read tx j in
              Txn.tx_work tx 10;
              Txn.write tx i (a + 1);
              Txn.write tx j (b + 1);
              Txn.write tx l (Txn.read tx l + 2));
          if r land 1 = 0 then
            Txn.atomic th (fun tx ->
                Txn.write tx (seen + tid) (sum tx record - sum tx array))
        done
      in
      let verify () =
        let mem = Engine.memory world in
        let total base =
          List.fold_left ( + ) 0
            (List.init line (fun k -> Memory.get mem (base + k)))
        in
        let expect = 2 * nthreads * rounds in
        let torn =
          List.find_opt
            (fun tid -> Memory.get mem (seen + tid) <> 0)
            (List.init nthreads Fun.id)
        in
        if total record <> expect || total array <> expect then
          Error
            (Printf.sprintf "recordmix sums %d and %d, expected %d"
               (total record) (total array) expect)
        else
          match torn with
          | Some tid ->
              Error
                (Printf.sprintf "thread %d saw sums differ by %d" tid
                   (Memory.get mem (seen + tid)))
          | None -> Ok ()
      in
      { App.world; body; verify })

(* Long reads: lock waits that outlast [Costs.spin_limit] spins.  A
   16-cell block (two records, one orec per cell) holds fixed values,
   [hot] counts commits, and each thread owns a 64-cell area that holds
   the block four times over.  A transaction reads the whole block,
   increments [hot], copies what it read into its area, then, in odd
   rounds, rewrites one block cell with the value it read (the orec
   moves, the value does not).  A reader blocked on [hot] has 16 reads
   logged and owns no orec, so it may wait up to its redo break-even
   ([Lock_wait.spin_on_lock]).  The copy is what holds [hot] for enough
   scheduling points for such a wait to pass the mark: eagerly while it
   is written, lazily while the commit acquires the area's orecs.  The
   doom scan finds the reader lost once an odd-round holder holds the
   cell it rewrites, and rescues a logged cell whose rewrite has
   committed.  [hot] ends at the number of commits, and every area
   holds the block.  The sweep fails a cell that never extended a
   wait. *)
let longread ~nthreads ~rounds =
  micro "longread" ~floors:[ Signal.extended ] ~nthreads rounds (fun config ->
      let world = small_world ~nthreads config in
      let mem = Engine.memory world in
      let arena = Engine.global_arena world in
      (* Cell [k] of an area made of [n] records. *)
      let area n =
        let records =
          Array.init n (fun _ -> Alloc.alloc arena Alloc.record_words)
        in
        fun k -> records.(k / Alloc.record_words) + (k mod Alloc.record_words)
      in
      let cells = 2 * Alloc.record_words in
      let block = area 2 in
      let copies = Array.init nthreads (fun _ -> area 8) in
      let hot = Alloc.alloc arena 1 in
      assert (
        Captured_stm.Orec.line_words_at (Engine.orecs world) (block 0) = 1);
      for k = 0 to cells - 1 do
        Memory.set mem (block k) (k + 1)
      done;
      let body th =
        let tid = Txn.thread_id th in
        let copy = copies.(tid) in
        let vals = Array.make cells 0 in
        for r = 1 to rounds do
          Txn.atomic th (fun tx ->
              for k = 0 to cells - 1 do
                vals.(k) <- Txn.read tx (block k)
              done;
              Txn.write tx hot (Txn.read tx hot + 1);
              for k = 0 to (4 * cells) - 1 do
                Txn.write tx (copy k) vals.(k mod cells)
              done;
              if r land 1 = 1 then begin
                let c = (tid + r) mod cells in
                Txn.write tx (block c) vals.(c)
              end)
        done
      in
      let verify () =
        let bad =
          List.find_opt
            (fun (t, k) ->
              Memory.get mem (copies.(t) k) <> (k mod cells) + 1)
            (List.concat_map
               (fun t -> List.init (4 * cells) (fun k -> (t, k)))
               (List.init nthreads Fun.id))
        in
        let expect = nthreads * rounds in
        if Memory.get mem hot <> expect then
          Error
            (Printf.sprintf "longread hot %d, expected %d"
               (Memory.get mem hot) expect)
        else
          match bad with
          | Some (t, k) ->
              Error
                (Printf.sprintf "thread %d copied %d for block cell %d" t
                   (Memory.get mem (copies.(t) k))
                   (k mod cells))
          | None -> Ok ()
      in
      { App.world; body; verify })

(* Read-for-write: two cells on distinct orecs, [a] and [b], kept equal.
   Every round a thread adds one to both, each through
   [Txn.read_for_write_at]; in even rounds it first reads [a] plainly, so
   its read-for-write of [a] finds the orec already logged and takes the
   plain read path.  In odd rounds it also reads [a] and [b] in a
   transaction of their own, with a window between the two, and records
   their difference, which any consistent snapshot holds at 0.  A
   read-for-write whose replaced version is newer than the snapshot
   extends it, so under the Global clock a stale plain read before it
   must abort the attempt; a skipped validation loses an update or
   records a torn difference.  The sweep fails a cell, eager or lazy,
   that never acquired an orec at a read-for-write. *)
let rfw ~nthreads ~rounds =
  micro "rfw" ~floors:[ Signal.rfw ] ~nthreads rounds (fun config ->
      let world = small_world ~nthreads config in
      let arena = Engine.global_arena world in
      let cells = Alloc.alloc arena 2 in
      let a = cells and b = cells + 1 in
      assert (Captured_stm.Orec.line_words_at (Engine.orecs world) a = 1);
      let seen = Alloc.alloc arena nthreads in
      let rfw tx addr =
        Txn.read_for_write_at ~site:Site.anonymous_read tx addr
      in
      let body th =
        let tid = Txn.thread_id th in
        for r = 1 to rounds do
          Txn.atomic th (fun tx ->
              if r land 1 = 0 then ignore (Txn.read tx a : int);
              Txn.write tx a (rfw tx a + 1);
              Txn.tx_work tx 5;
              Txn.write tx b (rfw tx b + 1));
          if r land 1 = 1 then
            Txn.atomic th (fun tx ->
                let x = Txn.read tx a in
                Txn.tx_work tx 5;
                Txn.write tx (seen + tid) (x - Txn.read tx b))
        done
      in
      let verify () =
        let mem = Engine.memory world in
        let expect = nthreads * rounds in
        let torn =
          List.find_opt
            (fun tid -> Memory.get mem (seen + tid) <> 0)
            (List.init nthreads Fun.id)
        in
        if Memory.get mem a <> expect || Memory.get mem b <> expect then
          Error
            (Printf.sprintf "rfw cells (%d, %d), expected %d"
               (Memory.get mem a) (Memory.get mem b) expect)
        else
          match torn with
          | Some tid ->
              Error
                (Printf.sprintf "thread %d saw the cells differ by %d" tid
                   (Memory.get mem (seen + tid)))
          | None -> Ok ()
      in
      { App.world; body; verify })

(* Rollback: no reader may admit a value that only an aborted writer
   stored.  Cells [a] and [b] share a conflict-detection line (one orec)
   and are equal in every committed state.  Each round thread 0 stores
   [dirty] into [a], yields, user-aborts and yields again, then commits
   an increment of both.  Eagerly the store is in place, under the held
   orec, and the abort's undo puts [a] back before the release; the
   yields hand the reader the windows on either side of the abort.
   Readers read [a] and [b] alternately, four reads with a window
   between each two, and record the spread of what they saw: [a] first in odd
   rounds (a fresh read under the orec sandwich; the later reads are
   line-mates) and [b] first in even rounds (every read of [a] is a
   line-mate, proved by one orec load after its value load).  If the
   abort released the orec with the word the reader had logged, a
   reader whose value load fell before the abort and its orec load
   after would admit [dirty]: the oracle flags the read, and the
   recorded spread shows it.  Under [+lazy] the store never reaches
   memory.  The sweep fails a cell that read no line-mate under its
   logged word. *)
let rollback ~nthreads ~rounds =
  micro "rollback" ~floors:[ Signal.line_mate ] ~nthreads rounds
    (fun config ->
      let world = small_world ~nthreads config in
      let arena = Engine.global_arena world in
      let line = Captured_stm.Orec.line_words in
      let block = Alloc.alloc arena (4 * line) in
      assert (
        Captured_stm.Orec.line_words_at (Engine.orecs world) block = line);
      let a = (block + line - 1) land lnot (line - 1) in
      let b = a + 1 in
      let dirty = 666 in
      let seen = Alloc.alloc arena nthreads in
      let body th =
        let tid = Txn.thread_id th in
        if tid = 0 then
          for _ = 1 to rounds do
            (try
               Txn.atomic th (fun tx ->
                   Txn.write tx a dirty;
                   Txn.yield_hint th;
                   Txn.abort tx)
             with Txn.User_abort -> ());
            Txn.yield_hint th;
            Txn.atomic th (fun tx ->
                Txn.write tx a (Txn.read tx a + 1);
                Txn.write tx b (Txn.read tx b + 1))
          done
        else
          for r = 1 to rounds do
            let first, second = if r land 1 = 1 then (a, b) else (b, a) in
            Txn.atomic th (fun tx ->
                let x1 = Txn.read tx first in
                Txn.tx_work tx 2;
                let y1 = Txn.read tx second in
                Txn.tx_work tx 2;
                let x2 = Txn.read tx first in
                Txn.tx_work tx 2;
                let y2 = Txn.read tx second in
                let lo = min (min x1 x2) (min y1 y2)
                and hi = max (max x1 x2) (max y1 y2) in
                Txn.write tx (seen + tid) (hi - lo));
            Txn.work th 3
          done
      in
      let verify () =
        let mem = Engine.memory world in
        let torn =
          List.find_opt
            (fun tid -> Memory.get mem (seen + tid) <> 0)
            (List.init (nthreads - 1) (fun i -> i + 1))
        in
        if Memory.get mem a <> rounds || Memory.get mem b <> rounds then
          Error
            (Printf.sprintf "rollback cells (%d, %d), expected %d"
               (Memory.get mem a) (Memory.get mem b) rounds)
        else
          match torn with
          | Some tid ->
              Error
                (Printf.sprintf "reader %d saw the cells differ by %d" tid
                   (Memory.get mem (seen + tid)))
          | None -> Ok ()
      in
      { App.world; body; verify })

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
  micro ~reclaim_oracle:true ~floors:[ Signal.dfrees ] "free_race" ~nthreads
    rounds (fun config ->
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
      { App.world; body; verify })

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
  micro ~reclaim_oracle:true ~floors:[ Signal.dfrees ] "privatize_race"
    ~nthreads rounds (fun config ->
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
      { App.world; body; verify })

let micros ~nthreads =
  [
    counter ~nthreads ~incs:4;
    bank ~nthreads ~accounts:4 ~transfers:3;
    publish ~nthreads ~nodes:3;
    scoped ~nthreads ~incs:2;
    (* No zombie spin touches a barrier slow path, so only the
       validation fuel every transactional operation burns bounds it.
       [zombie_reread]: under the Scan clock the zombie's read of [b] was
       logged unchecked and memory keeps the logged value, so every
       re-read is forwarded from the read log.  [zombie_owned]: after
       the first write every access hits the owned orec (eager) or the
       redo buffer (lazy). *)
    zombie ~name:"zombie" ~spin:(fun tx _ -> Txn.tx_work tx 25) ~nthreads
      ~rounds:3;
    zombie ~name:"zombie_reread"
      ~spin:(fun tx b -> ignore (Txn.read tx b : int))
      ~nthreads ~rounds:3;
    zombie ~name:"zombie_owned"
      ~spin:(fun tx b -> Txn.write tx b (Txn.read tx b))
      ~nthreads ~rounds:3;
    reread ~nthreads ~rounds:3;
    linemate ~nthreads ~rounds:3;
    recordmix ~nthreads ~rounds:4;
    longread ~nthreads ~rounds:2;
    rfw ~nthreads ~rounds:3;
    rollback ~nthreads ~rounds:3;
  ]

(* Kept out of [micros]: without [+ebr] these are red by design (they
   demonstrate the hazard), so the default sweeps must not inherit
   them.  Reclaim sweeps name them explicitly (or use both lists). *)
let reclaim_micros ~nthreads =
  [ free_race ~nthreads ~rounds:3; privatize_race ~nthreads ~rounds:2 ]

(* STAMP app adapter: loads verdicts as [App.run] does. *)
let of_app app ~nthreads =
  {
    name = app.App.name;
    nthreads;
    reclaim_oracle = false;
    floors = [];
    prepare =
      (fun config ->
        App.load_verdicts app config;
        app.App.prepare ~nthreads ~scale:App.Test config);
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
