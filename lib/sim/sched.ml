exception Fiber_failure of int * exn
exception Budget_exceeded of { tid : int; cycles : int }

(* An uncaught failure names the thread and what it raised, not
   [Fiber_failure(6, _)]. *)
let () =
  Printexc.register_printer (function
    | Fiber_failure (tid, e) ->
        Some
          (Printf.sprintf "Sched.Fiber_failure: thread %d raised %s" tid
             (Printexc.to_string e))
    | Budget_exceeded { tid; cycles } ->
        Some
          (Printf.sprintf
             "Sched.Budget_exceeded: thread %d reached %d cycles" tid cycles)
    | _ -> None)

type resume = Finished | Yielded

type fiber = {
  id : int;
  mutable vtime : int;
  mutable state : state;
}

and state =
  | Start of (unit -> resume)
  | Suspended of (unit, resume) Effect.Deep.continuation
  | Running
  | Done

type point = Consume_point | Yield_point

type control = ready:int array -> current:int -> point:point -> int

type sched = {
  quantum : int;
  heap : fiber array;
  mutable heap_len : int;
  mutable deadline : int;
  (* Default mode's cycle budget: no fiber's clock may pass it.  Every
     deadline is clipped to it, so the check costs nothing until a
     fiber reaches it. *)
  max_cycles : int;
  mutable switches : int;
  finish : int array;
  (* Controlled mode (systematic testing): when set, every consume/yield
     with another runnable fiber suspends, and [control] picks the next
     fiber to run.  The heap array is used as an unordered bag. *)
  controlled : bool;
  mutable pending_point : point;
  mutable current : int;
}

type ctx = { sched : sched; fiber : fiber }

type t = { final : sched }

type _ Effect.t += Yield : unit Effect.t

(* Min-heap on (vtime, id); the id tie-break makes scheduling total and
   deterministic. *)
let fiber_lt a b = a.vtime < b.vtime || (a.vtime = b.vtime && a.id < b.id)

let heap_push s f =
  let i = ref s.heap_len in
  s.heap_len <- s.heap_len + 1;
  s.heap.(!i) <- f;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if fiber_lt s.heap.(!i) s.heap.(parent) then begin
      let tmp = s.heap.(!i) in
      s.heap.(!i) <- s.heap.(parent);
      s.heap.(parent) <- tmp;
      i := parent
    end
    else continue := false
  done

let heap_pop s =
  if s.heap_len = 0 then None
  else begin
    let top = s.heap.(0) in
    s.heap_len <- s.heap_len - 1;
    if s.heap_len > 0 then begin
      s.heap.(0) <- s.heap.(s.heap_len);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < s.heap_len && fiber_lt s.heap.(l) s.heap.(!smallest) then
          smallest := l;
        if r < s.heap_len && fiber_lt s.heap.(r) s.heap.(!smallest) then
          smallest := r;
        if !smallest <> !i then begin
          let tmp = s.heap.(!i) in
          s.heap.(!i) <- s.heap.(!smallest);
          s.heap.(!smallest) <- tmp;
          i := !smallest
        end
        else continue := false
      done
    end;
    Some top
  end

let heap_peek_vtime s = if s.heap_len = 0 then max_int else s.heap.(0).vtime

let next_deadline s =
  let head = heap_peek_vtime s in
  min s.max_cycles (if head = max_int then max_int else head + s.quantum)

let over_budget s f =
  if f.vtime >= s.max_cycles then
    raise (Budget_exceeded { tid = f.id; cycles = f.vtime })

let reschedule ctx =
  let s = ctx.sched and f = ctx.fiber in
  over_budget s f;
  (* Only switch if someone else is actually behind us in virtual time;
     otherwise just extend the deadline. *)
  if heap_peek_vtime s <= f.vtime then Effect.perform Yield
  else s.deadline <- next_deadline s

let consume ctx c =
  let f = ctx.fiber in
  f.vtime <- f.vtime + c;
  if ctx.sched.controlled then begin
    if ctx.sched.heap_len > 0 then begin
      ctx.sched.pending_point <- Consume_point;
      Effect.perform Yield
    end
  end
  else if f.vtime >= ctx.sched.deadline then reschedule ctx

let yield ctx =
  ctx.fiber.vtime <- ctx.fiber.vtime + 1;
  if not ctx.sched.controlled then over_budget ctx.sched ctx.fiber;
  if ctx.sched.heap_len > 0 then begin
    if ctx.sched.controlled then ctx.sched.pending_point <- Yield_point;
    Effect.perform Yield
  end

let self ctx = ctx.fiber.id
let vtime ctx = ctx.fiber.vtime

(* Controlled pick: the heap array is an unordered bag.  A lone candidate
   resumes without consulting [control] — decision indices then depend only
   on the points where a real choice exists, which keeps replayed schedules
   aligned step for step. *)
let pick_controlled s (control : control) =
  if s.heap_len = 0 then None
  else if s.heap_len = 1 then begin
    s.heap_len <- 0;
    Some s.heap.(0)
  end
  else begin
    let ready = Array.init s.heap_len (fun i -> s.heap.(i).id) in
    Array.sort compare ready;
    let chosen =
      control ~ready ~current:s.current ~point:s.pending_point
    in
    let idx = ref (-1) in
    for i = 0 to s.heap_len - 1 do
      if s.heap.(i).id = chosen then idx := i
    done;
    if !idx < 0 then
      invalid_arg
        (Printf.sprintf "Sched: control chose fiber %d, not ready" chosen);
    let f = s.heap.(!idx) in
    s.heap_len <- s.heap_len - 1;
    s.heap.(!idx) <- s.heap.(s.heap_len);
    Some f
  end

let run ?(quantum = 200) ?(max_cycles = max_int) ?control ~threads () =
  let n = Array.length threads in
  let dummy = { id = -1; vtime = 0; state = Done } in
  let s =
    {
      quantum;
      heap = Array.make (max n 1) dummy;
      heap_len = 0;
      deadline = 0;
      max_cycles;
      switches = 0;
      finish = Array.make (max n 1) 0;
      controlled = Option.is_some control;
      pending_point = Yield_point;
      current = -1;
    }
  in
  let make_fiber i body =
    let fiber = { id = i; vtime = 0; state = Running } in
    let ctx = { sched = s; fiber } in
    let handler : (resume, resume) Effect.Deep.handler =
      {
        retc = (fun r -> r);
        exnc =
          (function
          | Budget_exceeded _ as e -> raise e
          | e -> raise (Fiber_failure (i, e)));
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Yield ->
                Some
                  (fun (k : (a, resume) Effect.Deep.continuation) ->
                    fiber.state <- Suspended k;
                    heap_push s fiber;
                    Yielded)
            | _ -> None);
      }
    in
    let start () =
      Effect.Deep.match_with
        (fun () ->
          body ctx;
          Finished)
        () handler
    in
    fiber.state <- Start start;
    fiber
  in
  Array.iteri (fun i body -> heap_push s (make_fiber i body)) threads;
  let resume f =
    s.switches <- s.switches + 1;
    match f.state with
    | Start start ->
        f.state <- Running;
        start ()
    | Suspended k ->
        f.state <- Running;
        Effect.Deep.continue k ()
    | Running | Done -> assert false
  in
  (match control with
  | None ->
      let rec loop () =
        match heap_pop s with
        | None -> ()
        | Some f ->
            s.deadline <- next_deadline s;
            (match resume f with
            | Finished ->
                f.state <- Done;
                s.finish.(f.id) <- f.vtime
            | Yielded -> ());
            loop ()
      in
      loop ()
  | Some control ->
      let rec loop () =
        match pick_controlled s control with
        | None -> ()
        | Some f ->
            s.current <- f.id;
            (match resume f with
            | Finished ->
                f.state <- Done;
                s.finish.(f.id) <- f.vtime;
                (* The departing fiber leaves no "current" to continue: the
                   next pick is a fresh start, like an explicit yield. *)
                s.current <- -1;
                s.pending_point <- Yield_point
            | Yielded -> ());
            loop ()
      in
      loop ());
  { final = s }

let makespan t = Array.fold_left max 0 t.final.finish
let thread_time t i = t.final.finish.(i)
let switches t = t.final.switches
