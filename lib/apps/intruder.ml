module Config = Captured_stm.Config
module Engine = Captured_stm.Engine
module Txn = Captured_stm.Txn
module Site = Captured_core.Site
module Memory = Captured_tmem.Memory
module Alloc = Captured_tmem.Alloc
module Prng = Captured_util.Prng
module Access = Captured_tstruct.Access
module Tqueue = Captured_tstruct.Tqueue
module Tmap = Captured_tstruct.Tmap
module Tlist = Captured_tstruct.Tlist
open Captured_tmir.Ir

(* Fragment record: {flow_id, frag_id, nfrags, len, chars...}. *)
let f_flow = 0
let f_frag = 1
let f_nfrags = 2
let f_len = 3
let frag_header_words = 4

(* Session record: {received, total_len, fragment list}. *)
let se_received = 0
let se_len = 1
let se_list = 2
let session_words = 3

let site_frag_flow_r =
  Site.declare ~init_only:true ~write:false "intruder.frag.flow_r"
let site_frag_id_r =
  Site.declare ~init_only:true ~write:false "intruder.frag.id_r"
let site_frag_nfrags_r =
  Site.declare ~init_only:true ~write:false "intruder.frag.nfrags_r"
let site_frag_len_r =
  Site.declare ~init_only:true ~write:false "intruder.frag.len_r"
let site_frag_char_r =
  Site.declare ~init_only:true ~write:false "intruder.frag.char_r"
let site_sess_init_received =
  Site.declare ~manual:false ~write:true "intruder.sess_init.received"
let site_sess_init_len =
  Site.declare ~manual:false ~write:true "intruder.sess_init.len"
let site_sess_init_list =
  Site.declare ~manual:false ~write:true "intruder.sess_init.list"
let site_sess_received_r = Site.declare ~write:false "intruder.sess.received_r"
let site_sess_received_w = Site.declare ~write:true "intruder.sess.received_w"
let site_sess_len_r = Site.declare ~write:false "intruder.sess.len_r"
let site_sess_len_w = Site.declare ~write:true "intruder.sess.len_w"
let site_sess_list_r =
  Site.declare ~init_only:true ~write:false "intruder.sess.list_r"
let site_buf_w = Site.declare ~manual:false ~write:true "intruder.buf_w"
let site_attacks_r = Site.declare ~write:false "intruder.attacks_r"
let site_attacks_w = Site.declare ~write:true "intruder.attacks_w"
let site_done_r = Site.declare ~write:false "intruder.done_r"
let site_done_w = Site.declare ~write:true "intruder.done_w"

type params = { flows : int; max_len : int; frag_size : int; attack_pct : int }

let params_of = function
  | App.Test -> { flows = 24; max_len = 32; frag_size = 6; attack_pct = 25 }
  | App.Bench -> { flows = 128; max_len = 64; frag_size = 8; attack_pct = 10 }
  | App.Large -> { flows = 1024; max_len = 128; frag_size = 16; attack_pct = 10 }

(* The attack signature: a fixed 4-char pattern over the 0..25 alphabet;
   normal traffic avoids char 25 entirely so no false positives. *)
let signature = [| 25; 1; 25; 2 |]

let prepare ~nthreads ~scale config =
  let p = params_of scale in
  let world =
    Engine.create ~nthreads
      ~global_words:(16 * p.flows * (p.max_len + 16))
      config
  in
  let arena = Engine.global_arena world in
  let mem = Engine.memory world in
  let setup = Access.of_arena arena in
  let g = Prng.create 0x1274D3 in
  (* Build flows and fragment them. *)
  let planted = ref 0 in
  let fragments = ref [] in
  for flow = 0 to p.flows - 1 do
    let len = (p.frag_size * 2) + Prng.int g (p.max_len - (p.frag_size * 2)) in
    let chars = Array.init len (fun _ -> Prng.int g 24) in
    if Prng.chance g ~percent:p.attack_pct then begin
      incr planted;
      let pos = Prng.int g (len - Array.length signature) in
      Array.blit signature 0 chars pos (Array.length signature)
    end;
    let nfrags = (len + p.frag_size - 1) / p.frag_size in
    for fr = 0 to nfrags - 1 do
      let flen = min p.frag_size (len - (fr * p.frag_size)) in
      let rec_ = Alloc.alloc arena (frag_header_words + flen) in
      Memory.set mem (rec_ + f_flow) flow;
      Memory.set mem (rec_ + f_frag) fr;
      Memory.set mem (rec_ + f_nfrags) nfrags;
      Memory.set mem (rec_ + f_len) flen;
      for k = 0 to flen - 1 do
        Memory.set mem (rec_ + frag_header_words + k)
          chars.((fr * p.frag_size) + k)
      done;
      fragments := rec_ :: !fragments
    done
  done;
  let frag_array = Array.of_list !fragments in
  Prng.shuffle g frag_array;
  let input = Tqueue.create setup ~capacity:(Array.length frag_array + 2) () in
  Array.iter (Tqueue.push setup input) frag_array;
  let sessions = Tmap.create setup in
  (* Counters: [attacks; processed]. *)
  let counters = Alloc.alloc arena 2 in
  (* Decode [frag] into its flow's session; on the flow's last fragment,
     assemble the flow into a fresh (captured) buffer and free the
     session. *)
  let decode tx acc frag =
    let flow = Txn.read_at ~site:site_frag_flow_r tx (frag + f_flow) in
    let fid = Txn.read_at ~site:site_frag_id_r tx (frag + f_frag) in
    let nfrags = Txn.read_at ~site:site_frag_nfrags_r tx (frag + f_nfrags) in
    let flen = Txn.read_at ~site:site_frag_len_r tx (frag + f_len) in
    let sess =
      Tmap.find_or_add acc sessions ~key:flow ~make:(fun () ->
          let s = Txn.alloc tx session_words in
          Txn.write_at ~site:site_sess_init_received tx (s + se_received) 0;
          Txn.write_at ~site:site_sess_init_len tx (s + se_len) 0;
          Txn.write_at ~site:site_sess_init_list tx (s + se_list)
            (Tlist.create acc);
          s)
    in
    let lst = Txn.read_at ~site:site_sess_list_r tx (sess + se_list) in
    ignore (Tlist.insert acc lst ~key:fid ~value:frag : bool);
    let received =
      Txn.read_at ~site:site_sess_received_r tx (sess + se_received) + 1
    in
    Txn.write_at ~site:site_sess_received_w tx (sess + se_received) received;
    let total_len =
      Txn.read_at ~site:site_sess_len_r tx (sess + se_len) + flen
    in
    Txn.write_at ~site:site_sess_len_w tx (sess + se_len) total_len;
    if received < nfrags then None
    else begin
      let buf = Txn.alloc tx (total_len + 1) in
      Txn.write_at ~site:site_buf_w tx buf total_len;
      let pos = ref 1 in
      let it = Txn.alloca tx Tlist.iter_words in
      Tlist.iter_reset acc ~iter:it lst;
      while Tlist.iter_has_next acc ~iter:it do
        let _, fr = Tlist.iter_next acc ~iter:it in
        let fl = Txn.read_at ~site:site_frag_len_r tx (fr + f_len) in
        for k = 0 to fl - 1 do
          Txn.write_at ~site:site_buf_w tx (buf + !pos)
            (Txn.read_at ~site:site_frag_char_r tx
               (fr + frag_header_words + k));
          incr pos
        done
      done;
      Tlist.destroy acc lst;
      ignore (Tmap.remove acc sessions flow : bool);
      Txn.free tx sess;
      Some buf
    end
  in
  let body th =
    (* One transaction per packet, pipelined: it decodes the packet the
       thread holds and pops the next one as its last access, so the
       queue head's orec (acquired at the pop's read-for-write) is held
       only from that pop to the commit, never across a decode.  A
       thread's first packet comes from a pop of its own: a first
       transaction that popped, decoded and popped again would hold the
       head through its decode, and decoders that hold map nodes while
       waiting for the head then abort it, and it them, without end
       (filtering+scope:hw, 16 threads, seed 3: 7 commits in 5 M
       events).  STAMP pops every packet in a transaction of its own
       (TMSTREAM_GETPACKET); the pipelined pop saves that commit per
       packet.  The detector runs outside. *)
    let rec loop frag =
      let buf, next =
        Txn.atomic th (fun tx ->
            let acc = Access.of_tx tx in
            let buf = decode tx acc frag in
            (buf, Tqueue.pop acc input))
      in
      Option.iter detect buf;
      Option.iter loop next
    and detect buf =
      (* The buffer is privatised: only this thread holds it. *)
      let len = Txn.raw_read th buf in
      let slen = Array.length signature in
      let found = ref false in
      for s = 1 to len - slen + 1 do
        let rec matches k =
          k >= slen || (Txn.raw_read th (buf + s + k) = signature.(k) && matches (k + 1))
        in
        if matches 0 then found := true
      done;
      Txn.work th (len * 2);
      let attacked = !found in
      Txn.atomic th (fun tx ->
          if attacked then
            Txn.write_at ~site:site_attacks_w tx counters
              (Txn.read_for_write_at ~site:site_attacks_r tx counters + 1);
          Txn.write_at ~site:site_done_w tx (counters + 1)
            (Txn.read_for_write_at ~site:site_done_r tx (counters + 1) + 1));
      Txn.raw_free th buf
    in
    Option.iter loop
      (Txn.atomic th (fun tx -> Tqueue.pop (Access.of_tx tx) input))
  in
  let verify () =
    let attacks = Memory.get mem counters in
    let processed = Memory.get mem (counters + 1) in
    let reader = Engine.setup_thread world in
    let acc = Access.raw reader in
    if attacks <> !planted then
      Error (Printf.sprintf "attacks: got %d, planted %d" attacks !planted)
    else if processed <> p.flows then
      Error (Printf.sprintf "processed %d of %d flows" processed p.flows)
    else if Tmap.size acc sessions <> 0 then
      Error
        (Printf.sprintf "%d sessions left undrained" (Tmap.size acc sessions))
    else Result.map_error (fun e -> "sessions: " ^ e) (Tmap.check acc sessions)
  in
  { App.world; body; verify }

let model =
  lazy
    {
      globals =
        [
          { gname = "intr_input"; gwords = 4; ginit = None };
          { gname = "intr_sessions"; gwords = 2; ginit = None };
          { gname = "intr_counters"; gwords = 2; ginit = None };
        ];
      funcs =
        Model_lib.funcs
        @ [
            {
              name = "intruder_decode";
              params = [ "frag" ];
              body =
                [
                  (* Decode the packet the thread holds, then pop the next
                     one as the transaction's last access. *)
                  Atomic
                    [
                      load ~site:"intruder.frag.flow_r" "flow" (v "frag");
                      load ~site:"intruder.frag.id_r" "fid"
                        (v "frag" +: i 1);
                      load ~site:"intruder.frag.nfrags_r" "nfrags"
                        (v "frag" +: i 2);
                      load ~site:"intruder.frag.len_r" "flen"
                        (v "frag" +: i 3);
                      Call
                        {
                          dst = Some "sess";
                          func = "map_find";
                          args = [ Global "intr_sessions"; v "flow" ];
                        };
                      If
                        ( v "sess" =: i 0,
                          [
                            Malloc
                              {
                                dst = "sess";
                                words = i 3;
                                label = "intr.session";
                              };
                            store ~manual:false
                              ~site:"intruder.sess_init.received"
                              (v "sess") (i 0);
                            store ~manual:false
                              ~site:"intruder.sess_init.len"
                              (v "sess" +: i 1) (i 0);
                            Call
                              {
                                dst = Some "newlst";
                                func = "list_create";
                                args = [];
                              };
                            store ~manual:false
                              ~site:"intruder.sess_init.list"
                              (v "sess" +: i 2) (v "newlst");
                            Call
                              {
                                dst = None;
                                func = "map_insert";
                                args =
                                  [ Global "intr_sessions"; v "flow"; v "sess" ];
                              };
                          ],
                          [] );
                      load ~site:"intruder.sess.list_r" "lst"
                        (v "sess" +: i 2);
                      Call
                        {
                          dst = None;
                          func = "list_insert";
                          args = [ v "lst"; v "fid"; v "frag" ];
                        };
                      load ~site:"intruder.sess.received_r" "rcv"
                        (v "sess");
                      store ~site:"intruder.sess.received_w" (v "sess")
                        (v "rcv" +: i 1);
                      load ~site:"intruder.sess.len_r" "tl"
                        (v "sess" +: i 1);
                      store ~site:"intruder.sess.len_w" (v "sess" +: i 1)
                        (v "tl" +: v "flen");
                      If
                        ( v "rcv" +: i 1 >=: v "nfrags",
                          [
                            Malloc
                              {
                                dst = "buf";
                                words = v "tl" +: v "flen" +: i 1;
                                label = "intr.buf";
                              };
                            store ~manual:false ~site:"intruder.buf_w"
                              (v "buf") (v "tl" +: v "flen");
                            (* Copy loop: captured buffer writes,
                               shared fragment reads through the
                               list iterator. *)
                            Alloca
                              { dst = "it"; words = 1; label = "intr.iter" };
                            load ~site:"list.header.first_r" "f0" (v "lst");
                            store ~manual:false ~site:"list.iter.write"
                              (v "it") (v "f0");
                            load ~manual:false ~site:"list.iter.read"
                              "node" (v "it");
                            Let ("pos", i 1);
                            While
                              ( v "node" <>: i 0,
                                [
                                  load ~site:"list.find.val" "fr"
                                    (v "node" +: i 1);
                                  load ~site:"intruder.frag.len_r" "fl"
                                    (v "fr" +: i 3);
                                  Let ("k", i 0);
                                  While
                                    ( v "k" <: v "fl",
                                      [
                                        load ~site:"intruder.frag.char_r"
                                          "c" (v "fr" +: i 4 +: v "k");
                                        store ~manual:false
                                          ~site:"intruder.buf_w"
                                          (v "buf" +: v "pos") (v "c");
                                        Let ("pos", v "pos" +: i 1);
                                        Let ("k", v "k" +: i 1);
                                      ] );
                                  load ~site:"list.traverse.next" "nxt"
                                    (v "node" +: i 2);
                                  store ~manual:false
                                    ~site:"list.iter.write" (v "it")
                                    (v "nxt");
                                  load ~manual:false
                                    ~site:"list.iter.read" "node" (v "it");
                                ] );
                            Call
                              {
                                dst = None;
                                func = "map_remove";
                                args = [ Global "intr_sessions"; v "flow" ];
                              };
                            Free (v "sess");
                          ],
                          [] );
                      Call
                        {
                          dst = Some "next";
                          func = "queue_pop";
                          args = [ Global "intr_input" ];
                        };
                    ];
                  Return (v "next");
                ];
            };
            {
              name = "intruder_record";
              params = [ "attacked" ];
              body =
                [
                  Atomic
                    [
                      If
                        ( v "attacked",
                          [
                            load ~site:"intruder.attacks_r" "a"
                              (Global "intr_counters");
                            store ~site:"intruder.attacks_w"
                              (Global "intr_counters") (v "a" +: i 1);
                          ],
                          [] );
                      load ~site:"intruder.done_r" "d"
                        (Global "intr_counters" +: i 1);
                      store ~site:"intruder.done_w"
                        (Global "intr_counters" +: i 1)
                        (v "d" +: i 1);
                    ];
                  Return (i 0);
                ];
            };
          ];
    }

let app =
  {
    App.name = "intruder";
    description = "packet reassembly + signature detection";
    prepare;
    model;
  }
