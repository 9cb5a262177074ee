module Config = Captured_stm.Config
module Engine = Captured_stm.Engine
module Txn = Captured_stm.Txn
module Site = Captured_core.Site
module Memory = Captured_tmem.Memory
module Alloc = Captured_tmem.Alloc
module Prng = Captured_util.Prng
module Access = Captured_tstruct.Access
module Thashtable = Captured_tstruct.Thashtable
module Tmap = Captured_tstruct.Tmap
open Captured_tmir.Ir

(* Segment record: {content_addr, next_segment (0 = tail), start_pos}. *)
let s_content = 0
let s_next = 1
let segment_words = 3

let site_link_w = Site.declare ~write:true "genome.link_w"
let site_content_r =
  Site.declare ~init_only:true ~write:false "genome.content_r"

type params = {
  genome_len : int;
  seg_len : int;
  dup_factor_pct : int; (* extra duplicate segments, % of unique count *)
}

let params_of = function
  | App.Test -> { genome_len = 256; seg_len = 12; dup_factor_pct = 50 }
  | App.Bench -> { genome_len = 1024; seg_len = 16; dup_factor_pct = 50 }
  | App.Large -> { genome_len = 8192; seg_len = 24; dup_factor_pct = 100 }

let content_hash mem addr len =
  let h = ref 0 in
  for k = 0 to len - 1 do
    h := (!h * 131) + Memory.get mem (addr + k);
    h := !h land max_int
  done;
  !h lor 1 (* nonzero *)

(* Hash of a sub-range (for prefix/suffix keys). *)
let range_hash mem addr len =
  let h = ref 0 in
  for k = 0 to len - 1 do
    h := (!h * 131) + Memory.get mem (addr + k);
    h := !h land max_int
  done;
  !h lor 1

let prepare ~nthreads ~scale config =
  let p = params_of scale in
  let nunique = p.genome_len - p.seg_len + 1 in
  let ndups = nunique * p.dup_factor_pct / 100 in
  let ntotal = nunique + ndups in
  let world =
    Engine.create ~nthreads
      ~global_words:(8 * ((p.genome_len + (ntotal * (p.seg_len + 4))) + 4096))
      config
  in
  let arena = Engine.global_arena world in
  let mem = Engine.memory world in
  let setup = Access.of_arena arena in
  (* Build the genome. *)
  let g = Prng.create 0x6E401E in
  let genome = Alloc.alloc arena p.genome_len in
  for k = 0 to p.genome_len - 1 do
    Memory.set mem (genome + k) (Prng.int g 4)
  done;
  (* Segment pool: one segment per start position, plus duplicates of
     random positions; shuffled so threads see them unordered. *)
  let starts = Array.init ntotal (fun i -> if i < nunique then i else Prng.int g nunique) in
  Prng.shuffle g starts;
  let seg_content = Alloc.alloc arena (ntotal * p.seg_len) in
  let seg_recs = Alloc.alloc arena (ntotal * segment_words) in
  Array.iteri
    (fun idx start ->
      let content = seg_content + (idx * p.seg_len) in
      for k = 0 to p.seg_len - 1 do
        Memory.set mem (content + k) (Memory.get mem (genome + start + k))
      done;
      let r = seg_recs + (idx * segment_words) in
      Memory.set mem (r + s_content) content;
      Memory.set mem (r + s_next) 0;
      Memory.set mem (r + 2) start)
    starts;
  (* Shared tables. *)
  let dedup = Thashtable.create setup ~buckets:512 () in
  let suffix_index = Tmap.create setup in
  let barrier = Sync.create setup ~nthreads in
  (* Per-thread unique-segment lists gathered in phase 1 (native-local,
     like a thread's private worklist). *)
  let owned = Array.make nthreads [] in
  let chunk = (ntotal + nthreads - 1) / nthreads in
  let body th =
    let tid = Txn.thread_id th in
    let lo = tid * chunk and hi = min ntotal ((tid + 1) * chunk) in
    (* Phase 1: dedup into the hash table (list nodes allocated inside
       the transactions -> captured). *)
    let mine = ref [] in
    for idx = lo to hi - 1 do
      let r = seg_recs + (idx * segment_words) in
      let content = Txn.raw_read th (r + s_content) in
      let key = content_hash mem content p.seg_len in
      Txn.work th (2 * p.seg_len);
      let fresh =
        Txn.atomic th (fun tx ->
            Thashtable.insert (Access.of_tx tx) dedup ~key ~value:r)
      in
      if fresh then mine := r :: !mine
    done;
    owned.(tid) <- !mine;
    Sync.wait barrier th ();
    (* Phase 2a: index unique segments by the hash of their (s-1)-suffix. *)
    List.iter
      (fun r ->
        let content = Txn.raw_read th (r + s_content) in
        let key = range_hash mem (content + 1) (p.seg_len - 1) in
        Txn.work th (2 * p.seg_len);
        ignore
          (Txn.atomic th (fun tx ->
               Tmap.insert (Access.of_tx tx) suffix_index ~key ~value:r)
            : bool))
      owned.(tid);
    Sync.wait barrier th ();
    (* Phase 2b: link each unique segment to the predecessor whose suffix
       equals our prefix: pred.next <- us. *)
    List.iter
      (fun r ->
        let content = Txn.raw_read th (r + s_content) in
        let key = range_hash mem content (p.seg_len - 1) in
        Txn.work th (2 * p.seg_len);
        Txn.atomic th (fun tx ->
            match Tmap.find (Access.of_tx tx) suffix_index key with
            | Some pred when pred <> r ->
                let pc = Txn.read_at ~site:site_content_r tx (pred + s_content) in
                ignore pc;
                Txn.write_at ~site:site_link_w tx (pred + s_next) r
            | Some _ | None -> ()))
      owned.(tid);
    Sync.wait barrier th ()
  in
  let verify () =
    (* Rebuild from the segment starting at genome position 0. *)
    let first_key = content_hash mem genome p.seg_len in
    let reader = Engine.setup_thread world in
    let acc = Access.raw reader in
    match
      (Tmap.check acc suffix_index, Thashtable.find acc dedup first_key)
    with
    | Error e, _ -> Error ("suffix index: " ^ e)
    | Ok (), None -> Error "first segment missing from table"
    | Ok (), Some first ->
        let buf = Buffer.create p.genome_len in
        let rec walk r count =
          if count > nunique then Error "chain longer than genome"
          else begin
            let content = Memory.get mem (r + s_content) in
            if count = 0 then
              for k = 0 to p.seg_len - 1 do
                Buffer.add_char buf (Char.chr (65 + Memory.get mem (content + k)))
              done
            else
              Buffer.add_char buf
                (Char.chr (65 + Memory.get mem (content + p.seg_len - 1)));
            let next = Memory.get mem (r + s_next) in
            if next = 0 then Ok () else walk next (count + 1)
          end
        in
        (match walk first 0 with
        | Error m -> Error m
        | Ok () ->
            let expected = Buffer.create p.genome_len in
            for k = 0 to p.genome_len - 1 do
              Buffer.add_char expected (Char.chr (65 + Memory.get mem (genome + k)))
            done;
            if Buffer.contents buf = Buffer.contents expected then Ok ()
            else
              Error
                (Printf.sprintf "reconstructed %d chars, genome %d; mismatch"
                   (Buffer.length buf) (Buffer.length expected)))
  in
  { App.world; body; verify }

let model =
  lazy
    {
      globals =
        [
          { gname = "gen_dedup"; gwords = 16; ginit = None };
          { gname = "gen_suffix"; gwords = 2; ginit = None };
        ];
      funcs =
        Model_lib.funcs
        @ [
            {
              name = "genome_dedup";
              params = [ "key"; "rec" ];
              body =
                [
                  Atomic
                    [
                      Call
                        {
                          dst = Some "r";
                          func = "hashtable_insert";
                          args = [ Global "gen_dedup"; v "key"; v "rec" ];
                        };
                    ];
                  Return (v "r");
                ];
            };
            {
              name = "genome_index";
              params = [ "key"; "rec" ];
              body =
                [
                  Atomic
                    [
                      Call
                        {
                          dst = Some "r";
                          func = "map_insert";
                          args = [ Global "gen_suffix"; v "key"; v "rec" ];
                        };
                    ];
                  Return (v "r");
                ];
            };
            {
              name = "genome_link";
              params = [ "key"; "rec" ];
              body =
                [
                  Atomic
                    [
                      Call
                        {
                          dst = Some "pred";
                          func = "map_find";
                          args = [ Global "gen_suffix"; v "key" ];
                        };
                      If
                        ( v "pred" <>: i 0,
                          [
                            load ~site:"genome.content_r" "pc" (v "pred");
                            store ~site:"genome.link_w" (v "pred" +: i 1)
                              (v "rec");
                          ],
                          [] );
                    ];
                  Return (i 0);
                ];
            };
          ];
    }

let app =
  {
    App.name = "genome";
    description = "gene sequencing: dedup, index, link segments";
    prepare;
    model;
  }
