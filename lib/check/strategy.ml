module Sched = Captured_sim.Sched
module Prng = Captured_util.Prng

type t = Random | Pct | Dfs

let persist = 85
let pct_depth = 3
let dfs_preemptions = 2

let name = function Random -> "random" | Pct -> "pct" | Dfs -> "dfs"

let mem ready id = Array.exists (fun x -> x = id) ready

(* The default policy every strategy's deviations are measured against:
   keep running at consume points, rotate round-robin at explicit yields (a spinning fiber that yields
   must lose the CPU or it livelocks). *)
let default_choice ~ready ~current ~point =
  match point with
  | Sched.Consume_point when mem ready current -> current
  | _ ->
      (* [ready] is sorted ascending: next id after [current], else wrap. *)
      let next = ref (-1) in
      Array.iter (fun id -> if !next = -1 && id > current then next := id) ready;
      if !next = -1 then ready.(0) else !next

(* ------------------------------------------------------------------ *)
(* Trace: what a run's schedule was, as deviations from the default     *)

type decision = {
  d_point : Sched.point;
  d_current : int;
  d_ready : int array;
  d_chosen : int;
}

type trace = {
  mutable steps : int;
  mutable hash : int;
  mutable interventions_rev : (int * int) list;
  mutable detail_rev : decision list;
  record_detail : bool;
}

let new_trace ?(record_detail = false) () =
  { steps = 0; hash = 0; interventions_rev = []; detail_rev = []; record_detail }

let fnv_prime = 0x100000001b3

let interventions tr = List.rev tr.interventions_rev
let detail tr = Array.of_list (List.rev tr.detail_rev)
let steps tr = tr.steps
let hash tr = tr.hash

(* [instrument tr c] wraps control [c] so that every decision is recorded
   in [tr]: a running hash of the chosen sequence (schedule identity),
   the deviations from the default policy (the replayable schedule), and
   optionally the full per-step detail (DFS branching). *)
let instrument tr (inner : Sched.control) : Sched.control =
 fun ~ready ~current ~point ->
  let chosen = inner ~ready ~current ~point in
  let step = tr.steps in
  tr.steps <- step + 1;
  tr.hash <- ((tr.hash * fnv_prime) lxor chosen) land max_int;
  if chosen <> default_choice ~ready ~current ~point then
    tr.interventions_rev <- (step, chosen) :: tr.interventions_rev;
  if tr.record_detail then
    tr.detail_rev <-
      { d_point = point; d_current = current; d_ready = ready; d_chosen = chosen }
      :: tr.detail_rev;
  chosen

(* ------------------------------------------------------------------ *)
(* Strategies                                                          *)

(* Seeded random walk: continue the current fiber with probability
   [persist]% at consume points, otherwise pick uniformly (at yields,
   among the others when possible — rescheduling the yielder would waste
   the step on spin loops). *)
let random_control ~seed ~persist : Sched.control =
  let g = Prng.create seed in
  fun ~ready ~current ~point ->
    match point with
    | Sched.Consume_point
      when mem ready current && Prng.chance g ~percent:persist ->
        current
    | Sched.Consume_point ->
        ready.(Prng.int g (Array.length ready))
    | Sched.Yield_point -> (
        let others =
          Array.to_list ready |> List.filter (fun id -> id <> current)
        in
        match others with
        | [] -> ready.(0)
        | l -> List.nth l (Prng.int g (List.length l)))

(* PCT-style priority scheduling (Burckhardt et al.): a random priority
   permutation, always running the highest-priority runnable fiber, with
   [depth - 1] priority-change points sampled over the schedule length at
   which the running fiber is demoted below everyone.  At explicit yields
   the yielder is excluded (see above). *)
let pct_control ~seed ~nthreads ~depth ~length : Sched.control =
  let g = Prng.create seed in
  let prio = Array.init nthreads (fun i -> i) in
  Prng.shuffle g prio;
  let change =
    Array.init (max 0 (depth - 1)) (fun _ -> Prng.int g (max 1 length))
  in
  Array.sort compare change;
  let floor = ref (-1) in
  let step = ref 0 in
  fun ~ready ~current ~point ->
    let s = !step in
    incr step;
    Array.iter
      (fun cp ->
        if cp = s && current >= 0 && current < nthreads then begin
          prio.(current) <- !floor;
          decr floor
        end)
      change;
    let pool =
      match point with
      | Sched.Yield_point when Array.length ready > 1 ->
          Array.of_seq
            (Seq.filter (fun id -> id <> current) (Array.to_seq ready))
      | _ -> ready
    in
    let pool = if Array.length pool = 0 then ready else pool in
    let best = ref pool.(0) in
    Array.iter (fun id -> if prio.(id) > prio.(!best) then best := id) pool;
    !best

(* Deterministic replay: prescribe the choice at the given decision
   indices, fall back to the default policy everywhere else.  Stale
   prescriptions (fiber not ready at that step after an upstream change)
   degrade to the default instead of failing — exactly what delta
   debugging needs when it drops part of a schedule. *)
let replay_control ?(interventions = []) () : Sched.control =
  let tbl = Hashtbl.create 16 in
  List.iter (fun (s, t) -> Hashtbl.replace tbl s t) interventions;
  let step = ref 0 in
  fun ~ready ~current ~point ->
    let s = !step in
    incr step;
    match Hashtbl.find_opt tbl s with
    | Some t when mem ready t -> t
    | _ -> default_choice ~ready ~current ~point

let interventions_to_string l =
  "["
  ^ String.concat "; "
      (List.map (fun (s, t) -> Printf.sprintf "%d->t%d" s t) l)
  ^ "]"
