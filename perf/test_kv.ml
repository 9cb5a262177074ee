(* The kv verifier must catch a corrupted map: one raw write into a node
   (breaking key order, or unlinking a subtree) has to fail [Kv.verify]. *)

module Kv = Perfkit.Kv
module Engine = Captured_stm.Engine
module Txn = Captured_stm.Txn
module Memory = Captured_tmem.Memory
module App = Captured_apps.App

(* Tmap layout: header word 0 is the root; node words are
   [key; value; priority; left; right]. *)
let root k = Memory.get (Engine.memory k.Kv.world) k.Kv.map
let key_field = 0
let left_field = 3

let fresh () =
  let k = Kv.build ~nthreads:1 ~scale:App.Test ~ops:256 () in
  let p = Kv.prepared k in
  ignore (Engine.run_sim ~seed:7 p.App.world p.App.body : Engine.result);
  k

let expect_ok k =
  match Kv.verify k with
  | Ok () -> ()
  | Error m -> Alcotest.failf "intact map rejected: %s" m

let expect_error what k =
  match Kv.verify k with
  | Ok () -> Alcotest.failf "verifier accepted a map with %s" what
  | Error _ -> ()

let corrupt k ~field ~value =
  let th = Engine.setup_thread k.Kv.world in
  Txn.raw_write th (root k + field) value

let intact () = expect_ok (fresh ())

let key_order () =
  let k = fresh () in
  expect_ok k;
  (* The root's left subtree holds smaller keys; a root key below all of
     them breaks in-order monotonicity. *)
  corrupt k ~field:key_field ~value:(-1);
  expect_error "a misordered key" k

let lost_subtree () =
  let k = fresh () in
  expect_ok k;
  corrupt k ~field:left_field ~value:0;
  expect_error "an unlinked subtree" k

let () =
  Alcotest.run "perf-kv"
    [
      ( "verifier",
        [
          Alcotest.test_case "intact map passes" `Quick intact;
          Alcotest.test_case "misordered key fails" `Quick key_order;
          Alcotest.test_case "unlinked subtree fails" `Quick lost_subtree;
        ] );
    ]
