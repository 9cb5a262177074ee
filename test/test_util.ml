open Captured_util

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Prng *)

let test_prng_deterministic () =
  let a = Prng.create 7 and b = Prng.create 7 in
  for _ = 1 to 100 do
    check_int "same stream" (Prng.bits a) (Prng.bits b)
  done

let test_prng_seeds_differ () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Prng.bits a = Prng.bits b then incr same
  done;
  check "different streams" true (!same < 5)

let test_prng_int_range () =
  let g = Prng.create 3 in
  for _ = 1 to 1000 do
    let v = Prng.int g 17 in
    check "in range" true (v >= 0 && v < 17)
  done

let test_prng_in_range () =
  let g = Prng.create 4 in
  for _ = 1 to 1000 do
    let v = Prng.in_range g (-5) 5 in
    check "in range" true (v >= -5 && v <= 5)
  done

let test_prng_split_independent () =
  let g = Prng.create 5 in
  let a = Prng.split g and b = Prng.split g in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Prng.bits a = Prng.bits b then incr same
  done;
  check "split streams differ" true (!same < 5)

let test_prng_shuffle_permutation () =
  let g = Prng.create 6 in
  let arr = Array.init 100 Fun.id in
  Prng.shuffle g arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 100 Fun.id) sorted

(* The stream is splitmix64: the first draws of a few seeds, pinned, so
   a change to the state's representation cannot move a simulator
   schedule.  Each row: two [bits], [int 1000], [int 8], [bool],
   [float], then [bits] of a [split]. *)
let test_prng_golden () =
  List.iter
    (fun (seed, b1, b2, i, i8, bo, f, sb) ->
      let g = Prng.create seed in
      let name = Printf.sprintf "seed %d" seed in
      check_int (name ^ " bits") b1 (Prng.bits g);
      check_int (name ^ " bits") b2 (Prng.bits g);
      check_int (name ^ " int 1000") i (Prng.int g 1000);
      check_int (name ^ " int 8") i8 (Prng.int g 8);
      check (name ^ " bool") bo (Prng.bool g);
      Alcotest.(check (float 0.)) (name ^ " float") f (Prng.float g);
      check_int (name ^ " split") sb (Prng.bits (Prng.split g)))
    [
      ( 0, 4073552104164651883, 1990071630548588925, 419, 3, true,
        0x1.4f2e7c31d1fa8p-2, 13327785762851631 );
      ( 1, 2612804094800205616, 3439311302766607129, 647, 2, true,
        0x1.869a17ff202ap-1, 4470306042571336620 );
      ( 42, 3419864383188818853, 737456523031723072, 964, 5, false,
        0x1.bc8863f47901bp-1, 3514271895982479775 );
      ( -3, 4456242780781963383, 4259814868351066432, 127, 2, true,
        0x1.059fd10cdf58p-5, 2816798804512355801 );
    ]

(* Minor-heap words [f ()] allocates.  Both probes below carry the same
   constant overhead (the boxed float holding [before]), so equal deltas
   at different draw counts mean a draw allocates nothing. *)
let minor_delta f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let test_prng_no_alloc () =
  let g = Prng.create 9 in
  let sink = ref 0 in
  let draws n =
    minor_delta (fun () ->
        for _ = 1 to n do
          (* A power of two, a rejection-sampled bound, and a coin. *)
          sink := !sink + Prng.int g 8 + Prng.int g 1000
                  + Bool.to_int (Prng.bool g)
        done)
  in
  ignore (draws 8 : float);
  Alcotest.(check (float 0.)) "draws allocate nothing" (draws 64) (draws 4096);
  check "drew" true (!sink > 0)

let test_prng_int_covers () =
  let g = Prng.create 8 in
  let seen = Array.make 4 false in
  for _ = 1 to 200 do
    seen.(Prng.int g 4) <- true
  done;
  check "covers all values" true (Array.for_all Fun.id seen)

let test_prng_float_unit () =
  let g = Prng.create 9 in
  for _ = 1 to 1000 do
    let f = Prng.float g in
    check "in [0,1)" true (f >= 0. && f < 1.)
  done

let test_prng_jump_matches_skip () =
  (* The O(1) jump must be bit-identical to discarding n draws — thread
     seeding relies on it to replay recorded schedules. *)
  List.iter
    (fun n ->
      let skip = Prng.create 11 and jump = Prng.create 11 in
      for _ = 1 to n do
        ignore (Prng.bits skip : int)
      done;
      Prng.jump jump n;
      check_int (Printf.sprintf "jump %d" n) (Prng.bits skip) (Prng.bits jump))
    [ 0; 1; 2; 3; 10; 1000; 123_456 ]

let test_prng_jump_negative () =
  let g = Prng.create 1 in
  Alcotest.check_raises "negative distance"
    (Invalid_argument "Prng.jump: negative distance") (fun () ->
      Prng.jump g (-1))

(* ------------------------------------------------------------------ *)
(* Padding *)

let test_padded_atomic_semantics () =
  let a = Padding.padded_atomic 5 in
  check_int "init" 5 (Atomic.get a);
  Atomic.set a 9;
  check_int "set" 9 (Atomic.get a);
  check_int "faa returns old" 9 (Atomic.fetch_and_add a 3);
  check_int "faa added" 12 (Atomic.get a);
  check "cas hit" true (Atomic.compare_and_set a 12 99);
  check_int "cas stored" 99 (Atomic.get a);
  check "cas miss" false (Atomic.compare_and_set a 12 0);
  check_int "cas miss kept" 99 (Atomic.get a)

let test_padded_atomic_is_padded () =
  let a = Padding.padded_atomic 0 in
  let pad_words = Padding.cache_line_bytes / (Sys.word_size / 8) in
  check_int "block spans a cache line" pad_words (Obj.size (Obj.repr a));
  check "at least 8 words on 64-bit" true (pad_words >= 8)

let test_padded_atomic_independent () =
  let a = Padding.padded_atomic 1 and b = Padding.padded_atomic 2 in
  Atomic.set a 10;
  check_int "b untouched" 2 (Atomic.get b)

(* ------------------------------------------------------------------ *)
(* Fixed *)

let feq msg a b = Alcotest.(check (float 1e-4)) msg a b

let test_fixed_roundtrip () =
  feq "3.25" 3.25 (Fixed.to_float (Fixed.of_float 3.25));
  feq "-7.5" (-7.5) (Fixed.to_float (Fixed.of_float (-7.5)));
  check_int "int roundtrip" 42 (Fixed.to_int (Fixed.of_int 42))

let test_fixed_arith () =
  let x = Fixed.of_float 2.5 and y = Fixed.of_float 1.25 in
  feq "add" 3.75 (Fixed.to_float (Fixed.add x y));
  feq "sub" 1.25 (Fixed.to_float (Fixed.sub x y));
  feq "mul" 3.125 (Fixed.to_float (Fixed.mul x y));
  feq "div" 2.0 (Fixed.to_float (Fixed.div x y))

let test_fixed_mul_negative () =
  let x = Fixed.of_float (-2.5) and y = Fixed.of_float 4.0 in
  feq "neg mul" (-10.0) (Fixed.to_float (Fixed.mul x y))

let test_fixed_sqrt () =
  feq "sqrt 4" 2.0 (Fixed.to_float (Fixed.sqrt (Fixed.of_int 4)));
  feq "sqrt 2" (Float.sqrt 2.) (Fixed.to_float (Fixed.sqrt (Fixed.of_int 2)));
  check_int "sqrt 0" 0 (Fixed.sqrt 0)

let test_fixed_log () =
  feq "log e" 1.0 (Fixed.to_float (Fixed.log (Fixed.of_float (Float.exp 1.))))

let prop_fixed_mul_matches_float =
  QCheck.Test.make ~name:"fixed mul ~ float mul" ~count:500
    QCheck.(pair (float_bound_exclusive 1000.) (float_bound_exclusive 1000.))
    (fun (a, b) ->
      let r = Fixed.to_float (Fixed.mul (Fixed.of_float a) (Fixed.of_float b)) in
      Float.abs (r -. (a *. b)) < 0.01 +. (Float.abs (a *. b) *. 1e-4))

let prop_fixed_sqrt_squares =
  QCheck.Test.make ~name:"sqrt(x)^2 ~ x" ~count:500
    QCheck.(float_bound_exclusive 10000.)
    (fun x ->
      let s = Fixed.sqrt (Fixed.of_float x) in
      Float.abs (Fixed.to_float (Fixed.mul s s) -. x) < 0.05 +. (x *. 1e-3))

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_basic () =
  let s = Stats.of_list [ 1.; 2.; 3.; 4. ] in
  feq "mean" 2.5 (Stats.mean s);
  check_int "count" 4 (Stats.count s);
  feq "min" 1. (Stats.min s);
  feq "max" 4. (Stats.max s)

let test_stats_stddev () =
  let s = Stats.of_list [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ] in
  feq "stddev" 2.13808993 (Stats.stddev s)

let test_stats_rel_stddev () =
  let s = Stats.of_list [ 10.; 10.; 10. ] in
  feq "zero spread" 0. (Stats.rel_stddev_percent s)

let test_stats_median () =
  feq "odd" 3. (Stats.median [ 5.; 3.; 1. ]);
  feq "even" 2.5 (Stats.median [ 1.; 2.; 3.; 4. ])

let test_stats_singleton () =
  let s = Stats.of_list [ 42. ] in
  feq "mean" 42. (Stats.mean s);
  feq "stddev" 0. (Stats.stddev s)

let qsuite name tests = (name, List.map Qc.to_alcotest tests)

let () =
  Alcotest.run "util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_prng_seeds_differ;
          Alcotest.test_case "int range" `Quick test_prng_int_range;
          Alcotest.test_case "in_range" `Quick test_prng_in_range;
          Alcotest.test_case "split independent" `Quick
            test_prng_split_independent;
          Alcotest.test_case "shuffle permutation" `Quick
            test_prng_shuffle_permutation;
          Alcotest.test_case "int covers" `Quick test_prng_int_covers;
          Alcotest.test_case "golden first draws" `Quick test_prng_golden;
          Alcotest.test_case "draws allocate nothing" `Quick
            test_prng_no_alloc;
          Alcotest.test_case "float unit" `Quick test_prng_float_unit;
          Alcotest.test_case "jump matches skip" `Quick
            test_prng_jump_matches_skip;
          Alcotest.test_case "jump rejects negative" `Quick
            test_prng_jump_negative;
        ] );
      ( "padding",
        [
          Alcotest.test_case "atomic semantics" `Quick
            test_padded_atomic_semantics;
          Alcotest.test_case "padded to a cache line" `Quick
            test_padded_atomic_is_padded;
          Alcotest.test_case "independent cells" `Quick
            test_padded_atomic_independent;
        ] );
      ( "fixed",
        [
          Alcotest.test_case "roundtrip" `Quick test_fixed_roundtrip;
          Alcotest.test_case "arith" `Quick test_fixed_arith;
          Alcotest.test_case "mul negative" `Quick test_fixed_mul_negative;
          Alcotest.test_case "sqrt" `Quick test_fixed_sqrt;
          Alcotest.test_case "log" `Quick test_fixed_log;
        ] );
      qsuite "fixed-props" [ prop_fixed_mul_matches_float; prop_fixed_sqrt_squares ];
      ( "stats",
        [
          Alcotest.test_case "basic" `Quick test_stats_basic;
          Alcotest.test_case "stddev" `Quick test_stats_stddev;
          Alcotest.test_case "rel stddev" `Quick test_stats_rel_stddev;
          Alcotest.test_case "median" `Quick test_stats_median;
          Alcotest.test_case "singleton" `Quick test_stats_singleton;
        ] );
    ]
