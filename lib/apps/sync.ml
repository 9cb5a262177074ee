module Access = Captured_tstruct.Access
module Txn = Captured_stm.Txn
module Site = Captured_core.Site

(* Layout: [0]=arrived count, [1]=sense. *)
type t = { base : int; nthreads : int }

let site_count_r = Site.declare ~write:false "sync.barrier.count_r"
let site_count_w = Site.declare ~write:true "sync.barrier.count_w"
let site_sense_w = Site.declare ~write:true "sync.barrier.sense_w"

let create (acc : Access.t) ~nthreads =
  let base = acc.alloc 2 in
  acc.write ~site:Site.anonymous_write base 0;
  acc.write ~site:Site.anonymous_write (base + 1) 0;
  { base; nthreads }

let wait t th ?serial () =
  let my_sense = 1 - Txn.raw_read th (t.base + 1) in
  let last =
    Txn.atomic th (fun tx ->
        let n = Txn.read_at ~site:site_count_r tx t.base + 1 in
        Txn.write_at ~site:site_count_w tx t.base n;
        n = t.nthreads)
  in
  if last then begin
    (match serial with Some f -> f () | None -> ());
    Txn.atomic th (fun tx ->
        Txn.write_at ~site:site_count_w tx t.base 0;
        Txn.write_at ~site:site_sense_w tx (t.base + 1) my_sense)
  end
  else
    while Txn.raw_read th (t.base + 1) <> my_sense do
      Txn.work th 20;
      Txn.yield_hint th
    done
