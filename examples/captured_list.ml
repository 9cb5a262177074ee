(* The paper's Figure 1(a), live: a list iterator on the transaction
   stack, and list nodes allocated inside transactions.

   A naive STM compiler turns every access inside the atomic block into a
   barrier — including writes to the iterator (a stack slot that did not
   exist before the transaction) and the initialisation of freshly
   malloc'ed nodes.  Runtime capture analysis elides them.  This example
   runs the same workload under each configuration and prints how many
   barriers were elided and what it did to (virtual) execution time.

   Run with: dune exec examples/captured_list.exe *)

module Config = Captured_stm.Config
module Engine = Captured_stm.Engine
module Txn = Captured_stm.Txn
module Stats = Captured_stm.Stats
module Alloc_log = Captured_core.Alloc_log
module Access = Captured_tstruct.Access
module Tlist = Captured_tstruct.Tlist

let run config =
  let world = Engine.create ~nthreads:1 config in
  let setup = Access.of_arena (Engine.global_arena world) in
  let task_list = Tlist.create setup in
  for k = 1 to 50 do
    ignore (Tlist.insert setup task_list ~key:k ~value:(k * k) : bool)
  done;
  let body th =
    for round = 1 to 100 do
      Txn.atomic th (fun tx ->
          let acc = Access.of_tx tx in
          (* The iterator lives on the transaction stack: captured. *)
          let it = Txn.alloca tx Tlist.iter_words in
          Tlist.iter_reset acc ~iter:it task_list;
          let sum = ref 0 in
          while Tlist.iter_has_next acc ~iter:it do
            let _, v = Tlist.iter_next acc ~iter:it in
            sum := !sum + v
          done;
          (* A scratch node allocated inside the transaction: captured. *)
          let node = Txn.alloc tx 4 in
          Txn.write tx node !sum;
          Txn.write tx (node + 1) round;
          Txn.write tx (node + 2) 0;
          Txn.write tx (node + 3) 1;
          Txn.free tx node)
    done
  in
  let r = Engine.run_sim ~seed:1 world body in
  let s = r.Engine.stats in
  (* The list's keys and values are init-only reads, loaded directly in
     every configuration; the capture elisions are counted apart. *)
  Printf.printf
    "%-18s reads %6d (captured %5d, init-only %5d)  writes %5d (captured \
     %5d)  makespan %8d\n"
    (Config.to_string config) s.Stats.reads
    (Stats.reads_elided s - s.Stats.reads_elided_init)
    s.Stats.reads_elided_init s.Stats.writes (Stats.writes_elided s)
    r.Engine.makespan

let () =
  print_endline
    "Figure 1(a) workload: iterate a shared list via a stack iterator,\n\
     allocate scratch nodes inside each transaction.\n";
  List.iter run
    [
      Config.baseline;
      Config.runtime Alloc_log.Tree;
      Config.runtime Alloc_log.Array;
      Config.runtime Alloc_log.Filter;
      Config.runtime ~scope:Config.write_only_scope Alloc_log.Tree;
    ]
