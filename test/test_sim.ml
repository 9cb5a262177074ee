open Captured_sim

let check_int = Alcotest.(check int)
let check = Alcotest.(check bool)

let test_single_fiber () =
  let trace = ref [] in
  let sim =
    Sched.run
      ~threads:
        [|
          (fun ctx ->
            Sched.consume ctx 100;
            trace := 1 :: !trace;
            Sched.consume ctx 50;
            trace := 2 :: !trace);
        |]
      ()
  in
  check_int "makespan" 150 (Sched.makespan sim);
  Alcotest.(check (list int)) "order" [ 2; 1 ] !trace

let test_two_fibers_interleave () =
  (* Fiber 0 burns big chunks; fiber 1 small ones.  Virtual-time ordering
     must interleave 1's steps before 0 finishes. *)
  let trace = ref [] in
  let step ctx id cost n =
    for i = 1 to n do
      Sched.consume ctx cost;
      trace := (id, i) :: !trace
    done
  in
  let _ =
    Sched.run ~quantum:10
      ~threads:[| (fun c -> step c 0 100 3); (fun c -> step c 1 10 3) |]
      ()
  in
  let order = List.rev !trace in
  (* Fiber 1's three steps (vtimes 10,20,30) all precede fiber 0's second
     (vtime 200). *)
  let pos p =
    let rec go i = function
      | [] -> -1
      | x :: tl -> if x = p then i else go (i + 1) tl
    in
    go 0 order
  in
  check "interleaved" true (pos (1, 3) < pos (0, 2))

let test_makespan_parallel () =
  (* Two fibers of 1000 cycles each: parallel makespan is 1000, not 2000. *)
  let sim =
    Sched.run
      ~threads:
        [| (fun c -> Sched.consume c 1000); (fun c -> Sched.consume c 1000) |]
      ()
  in
  check_int "parallel makespan" 1000 (Sched.makespan sim)

let test_thread_time () =
  let sim =
    Sched.run
      ~threads:[| (fun c -> Sched.consume c 10); (fun c -> Sched.consume c 99) |]
      ()
  in
  check_int "t0" 10 (Sched.thread_time sim 0);
  check_int "t1" 99 (Sched.thread_time sim 1)

let test_determinism () =
  let body ctx =
    for _ = 1 to 100 do
      Sched.consume ctx (1 + (Sched.self ctx * 7));
      if Sched.vtime ctx mod 3 = 0 then Sched.yield ctx
    done
  in
  let run () =
    let sim = Sched.run ~quantum:13 ~threads:(Array.make 8 body) () in
    (Sched.makespan sim, Sched.switches sim)
  in
  let a = run () and b = run () in
  check "deterministic" true (a = b)

let test_yield_fairness () =
  (* A spinner that yields lets the other fiber finish. *)
  let done1 = ref false in
  let _ =
    Sched.run
      ~threads:
        [|
          (fun c ->
            while not !done1 do
              Sched.yield c
            done);
          (fun c ->
            Sched.consume c 5000;
            done1 := true);
        |]
      ()
  in
  check "progressed" true !done1

let test_fiber_failure () =
  let boom () =
    ignore
      (Sched.run
         ~threads:[| (fun _ -> failwith "kaput") |]
         ())
  in
  Alcotest.check_raises "propagates"
    (Sched.Fiber_failure (0, Failure "kaput"))
    boom

let test_self_ids () =
  let seen = Array.make 4 (-1) in
  let _ =
    Sched.run
      ~threads:(Array.init 4 (fun i ctx -> seen.(i) <- Sched.self ctx))
      ()
  in
  Alcotest.(check (array int)) "ids" [| 0; 1; 2; 3 |] seen

let test_many_fibers_many_switches () =
  (* Stress: no stack blow-up across tens of thousands of switches. *)
  let sim =
    Sched.run ~quantum:1
      ~threads:
        (Array.make 16 (fun c ->
             for _ = 1 to 2000 do
               Sched.consume c 3
             done))
      ()
  in
  check "ran" true (Sched.makespan sim >= 6000)

let test_platform_native () =
  let p = Platform.native in
  p.Platform.consume 100;
  p.Platform.yield ();
  (* A wait past the spin threshold sleeps, about 1e-8 s a cycle. *)
  let t0 = Unix.gettimeofday () in
  p.Platform.relax 100_000;
  check "long relax sleeps" true (Unix.gettimeofday () -. t0 >= 5e-4)

let test_platform_simulated () =
  let sim =
    Sched.run
      ~threads:
        [|
          (fun ctx ->
            let p = Platform.simulated ctx in
            p.Platform.consume 42;
            p.Platform.relax 1000);
        |]
      ()
  in
  check_int "consume is virtual time, relax is free" 42 (Sched.makespan sim)

let () =
  Alcotest.run "sim"
    [
      ( "sched",
        [
          Alcotest.test_case "single fiber" `Quick test_single_fiber;
          Alcotest.test_case "interleave" `Quick test_two_fibers_interleave;
          Alcotest.test_case "parallel makespan" `Quick test_makespan_parallel;
          Alcotest.test_case "thread_time" `Quick test_thread_time;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "yield fairness" `Quick test_yield_fairness;
          Alcotest.test_case "fiber failure" `Quick test_fiber_failure;
          Alcotest.test_case "self ids" `Quick test_self_ids;
          Alcotest.test_case "many switches" `Quick
            test_many_fibers_many_switches;
        ] );
      ( "platform",
        [
          Alcotest.test_case "native" `Quick test_platform_native;
          Alcotest.test_case "simulated" `Quick test_platform_simulated;
        ] );
    ]
