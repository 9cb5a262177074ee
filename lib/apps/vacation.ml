module Config = Captured_stm.Config
module Engine = Captured_stm.Engine
module Txn = Captured_stm.Txn
module Site = Captured_core.Site
module Memory = Captured_tmem.Memory
module Alloc = Captured_tmem.Alloc
module Prng = Captured_util.Prng
module Access = Captured_tstruct.Access
module Tmap = Captured_tstruct.Tmap
module Tlist = Captured_tstruct.Tlist
open Captured_tmir.Ir

(* Resource record: {total, used, free, price}. *)
let r_total = 0
let r_used = 1
let r_free = 2
let r_price = 3
let resource_words = 4

(* Customer record: {id, reservation list}. *)
let c_id = 0
let c_list = 1
let customer_words = 2

(* Reservation info: {rtype, rid, price}. *)
let i_type = 0
let i_rid = 1
let i_price = 2
let info_words = 3

let site_free_r = Site.declare ~write:false "vacation.res.free_r"
let site_free_w = Site.declare ~write:true "vacation.res.free_w"
let site_used_r = Site.declare ~write:false "vacation.res.used_r"
let site_used_w = Site.declare ~write:true "vacation.res.used_w"
let site_price_r = Site.declare ~write:false "vacation.res.price_r"
let site_price_w = Site.declare ~write:true "vacation.res.price_w"
let site_total_r =
  Site.declare ~init_only:true ~write:false "vacation.res.total_r"
let site_res_init_total =
  Site.declare ~manual:false ~write:true "vacation.res_init.total"
let site_res_init_used =
  Site.declare ~manual:false ~write:true "vacation.res_init.used"
let site_res_init_free =
  Site.declare ~manual:false ~write:true "vacation.res_init.free"
let site_res_init_price =
  Site.declare ~manual:false ~write:true "vacation.res_init.price"
let site_cust_init_id =
  Site.declare ~manual:false ~write:true "vacation.cust_init.id"
let site_cust_init_list =
  Site.declare ~manual:false ~write:true "vacation.cust_init.list"
let site_cust_list_r =
  Site.declare ~init_only:true ~write:false "vacation.cust.list_r"
let site_info_init_type =
  Site.declare ~manual:false ~write:true "vacation.info_init.type"
let site_info_init_rid =
  Site.declare ~manual:false ~write:true "vacation.info_init.rid"
let site_info_init_price =
  Site.declare ~manual:false ~write:true "vacation.info_init.price"
let site_info_type_r =
  Site.declare ~init_only:true ~write:false "vacation.info.type_r"
let site_info_rid_r =
  Site.declare ~init_only:true ~write:false "vacation.info.rid_r"

type params = {
  relations : int; (* resources per type *)
  customers : int;
  txns_per_thread : int;
  queries_per_txn : int;
  query_pct : int; (* % of id range queried *)
  user_pct : int; (* % make-reservation transactions *)
  initial_capacity : int;
}

let params_of ~high = function
  | App.Test ->
      {
        relations = 32;
        customers = 24;
        txns_per_thread = 40;
        queries_per_txn = (if high then 4 else 2);
        query_pct = (if high then 60 else 90);
        user_pct = (if high then 90 else 98);
        initial_capacity = 4;
      }
  | App.Bench ->
      {
        relations = 8192;
        customers = 1024;
        txns_per_thread = 128;
        queries_per_txn = (if high then 4 else 2);
        query_pct = (if high then 60 else 90);
        user_pct = (if high then 90 else 98);
        initial_capacity = 8;
      }
  | App.Large ->
      {
        relations = 1024;
        customers = 512;
        txns_per_thread = 512;
        queries_per_txn = (if high then 4 else 2);
        query_pct = (if high then 60 else 90);
        user_pct = (if high then 90 else 98);
        initial_capacity = 8;
      }

let ntypes = 3

(* Reservations outstanding per (type, resource id) over every
   customer's list; an [Error] names the first reservation whose type
   word names no resource table. *)
let tally_reservations (acc : Access.t) customer_map =
  let outstanding = Hashtbl.create 64 in
  let bad = ref None in
  Tmap.fold acc customer_map ~init:() ~f:(fun () cid cust ->
      let lst = acc.Access.read ~site:Site.anonymous_read (cust + c_list) in
      Tlist.fold acc lst ~init:() ~f:(fun () key info ->
          let t = acc.Access.read ~site:Site.anonymous_read (info + i_type) in
          let id = acc.Access.read ~site:Site.anonymous_read (info + i_rid) in
          if t >= 0 && t < ntypes then
            let k = (t, id) in
            let n = Option.value ~default:0 (Hashtbl.find_opt outstanding k) in
            Hashtbl.replace outstanding k (n + 1)
          else if !bad = None then
            bad :=
              Some
                (Printf.sprintf
                   "customer %d: reservation %d (info %d) has type %d, not in \
                    0..%d"
                   cid key info t (ntypes - 1))));
  match !bad with None -> Ok outstanding | Some m -> Error m

let prepare ~high ~nthreads ~scale config =
  let p = params_of ~high scale in
  let world =
    Engine.create ~nthreads
      ~global_words:(96 * p.relations)
      ~arena_words:(1 lsl 18) config
  in
  let arena = Engine.global_arena world in
  let setup = Access.of_arena arena in
  let resource_maps = Array.init ntypes (fun _ -> Tmap.create setup) in
  let customer_map = Tmap.create setup in
  (* Populate resources. *)
  let g0 = Prng.create 0xFACA71 in
  for t = 0 to ntypes - 1 do
    for id = 0 to p.relations - 1 do
      let r = setup.Access.alloc resource_words in
      setup.Access.write ~site:Site.anonymous_write (r + r_total)
        p.initial_capacity;
      setup.Access.write ~site:Site.anonymous_write (r + r_used) 0;
      setup.Access.write ~site:Site.anonymous_write (r + r_free)
        p.initial_capacity;
      setup.Access.write ~site:Site.anonymous_write (r + r_price)
        (50 + Prng.int g0 450);
      ignore (Tmap.insert setup resource_maps.(t) ~key:id ~value:r : bool)
    done
  done;
  let query_range = max 1 (p.relations * p.query_pct / 100) in
  let body th =
    let g = Txn.thread_prng th in
    for _ = 1 to p.txns_per_thread do
      let action = Prng.int g 100 in
      if action < p.user_pct then begin
        (* Make reservation. *)
        let queries =
          Array.init p.queries_per_txn (fun _ ->
              (Prng.int g ntypes, Prng.int g query_range))
        in
        let cid = Prng.int g p.customers in
        Txn.atomic th (fun tx ->
            let acc = Access.of_tx tx in
            (* Query phase: track the best-priced available resource per
               type, and keep the node found for it. *)
            let best_id = Array.make ntypes (-1) in
            let best_price = Array.make ntypes (-1) in
            let best_r = Array.make ntypes 0 in
            Array.iter
              (fun (t, id) ->
                match Tmap.find acc resource_maps.(t) id with
                | None -> ()
                | Some r ->
                    let free = Txn.read_at ~site:site_free_r tx (r + r_free) in
                    let price = Txn.read_at ~site:site_price_r tx (r + r_price) in
                    if free > 0 && price > best_price.(t) then begin
                      best_price.(t) <- price;
                      best_id.(t) <- id;
                      best_r.(t) <- r
                    end)
              queries;
            let any = Array.exists (fun id -> id >= 0) best_id in
            if any then begin
              (* Get or create the customer, in one descent. *)
              let cust =
                Tmap.find_or_add acc customer_map ~key:cid ~make:(fun () ->
                    let c = Txn.alloc tx customer_words in
                    Txn.write_at ~site:site_cust_init_id tx (c + c_id) cid;
                    Txn.write_at ~site:site_cust_init_list tx (c + c_list)
                      (Tlist.create acc);
                    c)
              in
              let lst = Txn.read_at ~site:site_cust_list_r tx (cust + c_list) in
              for t = 0 to ntypes - 1 do
                if best_id.(t) >= 0 then begin
                  (* The reservation info is built first; the list
                     insert's own presence test then decides, and a
                     duplicate frees the (captured) block. *)
                  let r = best_r.(t) in
                  let key = (t * p.relations * 4) + best_id.(t) in
                  let info = Txn.alloc tx info_words in
                  Txn.write_at ~site:site_info_init_type tx (info + i_type) t;
                  Txn.write_at ~site:site_info_init_rid tx (info + i_rid)
                    best_id.(t);
                  Txn.write_at ~site:site_info_init_price tx (info + i_price)
                    best_price.(t);
                  if Tlist.insert acc lst ~key ~value:info then begin
                    Txn.write_at ~site:site_free_w tx (r + r_free)
                      (Txn.read_for_write_at ~site:site_free_r tx (r + r_free)
                         - 1);
                    Txn.write_at ~site:site_used_w tx (r + r_used)
                      (Txn.read_for_write_at ~site:site_used_r tx (r + r_used)
                         + 1)
                  end
                  else Txn.free tx info
                end
              done
            end)
      end
      else if action < p.user_pct + ((100 - p.user_pct) / 2) then begin
        (* Delete customer: release all reservations. *)
        let cid = Prng.int g p.customers in
        Txn.atomic th (fun tx ->
            let acc = Access.of_tx tx in
            match Tmap.find acc customer_map cid with
            | None -> ()
            | Some cust ->
                let lst = Txn.read_at ~site:site_cust_list_r tx (cust + c_list) in
                (* Iterator on the transaction stack (Figure 1(a)). *)
                let it = Txn.alloca tx Tlist.iter_words in
                Tlist.iter_reset acc ~iter:it lst;
                while Tlist.iter_has_next acc ~iter:it do
                  let _, info = Tlist.iter_next acc ~iter:it in
                  let t = Txn.read_at ~site:site_info_type_r tx (info + i_type) in
                  let id = Txn.read_at ~site:site_info_rid_r tx (info + i_rid) in
                  (match Tmap.find acc resource_maps.(t) id with
                  | Some r ->
                      Txn.write_at ~site:site_free_w tx (r + r_free)
                        (Txn.read_for_write_at ~site:site_free_r tx (r + r_free)
                           + 1);
                      Txn.write_at ~site:site_used_w tx (r + r_used)
                        (Txn.read_for_write_at ~site:site_used_r tx (r + r_used)
                           - 1)
                  | None -> ());
                  Txn.free tx info
                done;
                Tlist.destroy acc lst;
                ignore (Tmap.remove acc customer_map cid : bool);
                Txn.free tx cust)
      end
      else begin
        (* Update tables. *)
        let nups = 2 in
        let ups =
          Array.init nups (fun _ ->
              (Prng.int g ntypes, Prng.int g p.relations, Prng.bool g,
               50 + Prng.int g 450))
        in
        Txn.atomic th (fun tx ->
            let acc = Access.of_tx tx in
            Array.iter
              (fun (t, id, add, price) ->
                match Tmap.find acc resource_maps.(t) id with
                | Some r ->
                    if add then
                      Txn.write_at ~site:site_price_w tx (r + r_price) price
                    else begin
                      (* Only retire resources nobody holds. *)
                      let used = Txn.read_at ~site:site_used_r tx (r + r_used) in
                      if used = 0 then begin
                        ignore (Tmap.remove acc resource_maps.(t) id : bool);
                        Txn.free tx r
                      end
                    end
                | None ->
                    if add then begin
                      let r = Txn.alloc tx resource_words in
                      Txn.write_at ~site:site_res_init_total tx (r + r_total)
                        p.initial_capacity;
                      Txn.write_at ~site:site_res_init_used tx (r + r_used) 0;
                      Txn.write_at ~site:site_res_init_free tx (r + r_free)
                        p.initial_capacity;
                      Txn.write_at ~site:site_res_init_price tx (r + r_price)
                        price;
                      ignore (Tmap.insert acc resource_maps.(t) ~key:id ~value:r : bool)
                    end)
              ups)
      end
    done
  in
  let verify () =
    let acc = Access.raw (Engine.setup_thread world) in
    (* used+free = total for every resource, and used matches outstanding
       reservations. *)
    let outstanding, error =
      match tally_reservations acc customer_map with
      | Ok outstanding -> (outstanding, ref None)
      | Error m -> (Hashtbl.create 0, ref (Some m))
    in
    let check_map what m =
      match Tmap.check acc m with
      | Error e when !error = None -> error := Some (what ^ ": " ^ e)
      | _ -> ()
    in
    Array.iteri
      (fun t m -> check_map (Printf.sprintf "resource map %d" t) m)
      resource_maps;
    check_map "customer map" customer_map;
    for t = 0 to ntypes - 1 do
      Tmap.fold acc resource_maps.(t) ~init:() ~f:(fun () id r ->
          let total = acc.Access.read ~site:site_total_r (r + r_total) in
          let used = acc.Access.read ~site:Site.anonymous_read (r + r_used) in
          let free = acc.Access.read ~site:Site.anonymous_read (r + r_free) in
          if used + free <> total && !error = None then
            error :=
              Some
                (Printf.sprintf "resource (%d,%d): used %d + free %d <> total %d"
                   t id used free total);
          let expected = Option.value ~default:0 (Hashtbl.find_opt outstanding (t, id)) in
          if used <> expected && !error = None then
            error :=
              Some
                (Printf.sprintf
                   "resource (%d,%d): used %d but %d outstanding reservations"
                   t id used expected))
    done;
    (* Every outstanding reservation references a live resource. *)
    Hashtbl.iter
      (fun (t, id) _n ->
        if not (Tmap.contains acc resource_maps.(t) id) && !error = None then
          error := Some (Printf.sprintf "reservation for retired resource (%d,%d)" t id))
      outstanding;
    match !error with None -> Ok () | Some m -> Error m
  in
  { App.world; body; verify }

(* IR model: the three transaction kinds built over the data-structure
   models. *)
let model =
  lazy
    {
      globals =
        [
          { gname = "vac_resmap"; gwords = 2; ginit = None };
          { gname = "vac_custmap"; gwords = 2; ginit = None };
        ];
      funcs =
        Model_lib.funcs
        @ [
            {
              name = "vac_reserve";
              params = [ "id"; "cid" ];
              body =
                [
                  Atomic
                    [
                      Call
                        {
                          dst = Some "r";
                          func = "map_find";
                          args = [ Global "vac_resmap"; v "id" ];
                        };
                      If
                        ( v "r" <>: i 0,
                          [
                            load ~site:"vacation.res.free_r" "free"
                              (v "r" +: i 2);
                            load ~site:"vacation.res.price_r" "price"
                              (v "r" +: i 3);
                            Call
                              {
                                dst = Some "cust";
                                func = "map_find";
                                args = [ Global "vac_custmap"; v "cid" ];
                              };
                            If
                              ( v "cust" =: i 0,
                                [
                                  Malloc
                                    {
                                      dst = "cust";
                                      words = i 2;
                                      label = "vac.customer";
                                    };
                                  store ~manual:false
                                    ~site:"vacation.cust_init.id" (v "cust")
                                    (v "cid");
                                  Call
                                    {
                                      dst = Some "newlst";
                                      func = "list_create";
                                      args = [];
                                    };
                                  store ~manual:false
                                    ~site:"vacation.cust_init.list"
                                    (v "cust" +: i 1)
                                    (v "newlst");
                                  Call
                                    {
                                      dst = None;
                                      func = "map_insert";
                                      args =
                                        [ Global "vac_custmap"; v "cid"; v "cust" ];
                                    };
                                ],
                                [] );
                            load ~site:"vacation.cust.list_r" "lst"
                              (v "cust" +: i 1);
                            Malloc
                              { dst = "info"; words = i 3; label = "vac.info" };
                            store ~manual:false ~site:"vacation.info_init.type"
                              (v "info") (i 0);
                            store ~manual:false ~site:"vacation.info_init.rid"
                              (v "info" +: i 1)
                              (v "id");
                            store ~manual:false
                              ~site:"vacation.info_init.price"
                              (v "info" +: i 2)
                              (v "price");
                            Call
                              {
                                dst = None;
                                func = "list_insert";
                                args = [ v "lst"; v "id"; v "info" ];
                              };
                            store ~site:"vacation.res.free_w" (v "r" +: i 2)
                              (v "free" -: i 1);
                            load ~site:"vacation.res.used_r" "used"
                              (v "r" +: i 1);
                            store ~site:"vacation.res.used_w" (v "r" +: i 1)
                              (v "used" +: i 1);
                          ],
                          [] );
                    ];
                  Return (i 0);
                ];
            };
            {
              name = "vac_delete_customer";
              params = [ "cid" ];
              body =
                [
                  Atomic
                    [
                      Call
                        {
                          dst = Some "cust";
                          func = "map_find";
                          args = [ Global "vac_custmap"; v "cid" ];
                        };
                      If
                        ( v "cust" <>: i 0,
                          [
                            load ~site:"vacation.cust.list_r" "lst"
                              (v "cust" +: i 1);
                            (* Iterator on the transaction stack. *)
                            Alloca { dst = "it"; words = 1; label = "vac.iter" };
                            load ~site:"list.header.first_r" "f" (v "lst");
                            store ~manual:false ~site:"list.iter.write" (v "it")
                              (v "f");
                            load ~manual:false ~site:"list.iter.read" "node"
                              (v "it");
                            While
                              ( v "node" <>: i 0,
                                [
                                  load ~site:"list.find.val" "info"
                                    (v "node" +: i 1);
                                  load ~site:"vacation.info.type_r" "t"
                                    (v "info");
                                  load ~site:"vacation.info.rid_r" "id"
                                    (v "info" +: i 1);
                                  Call
                                    {
                                      dst = Some "r";
                                      func = "map_find";
                                      args = [ Global "vac_resmap"; v "id" ];
                                    };
                                  If
                                    ( v "r" <>: i 0,
                                      [
                                        load ~site:"vacation.res.free_r" "free"
                                          (v "r" +: i 2);
                                        store ~site:"vacation.res.free_w"
                                          (v "r" +: i 2)
                                          (v "free" +: i 1);
                                        load ~site:"vacation.res.used_r" "used"
                                          (v "r" +: i 1);
                                        store ~site:"vacation.res.used_w"
                                          (v "r" +: i 1)
                                          (v "used" -: i 1);
                                      ],
                                      [] );
                                  Free (v "info");
                                  load ~site:"list.traverse.next" "nxt"
                                    (v "node" +: i 2);
                                  store ~manual:false ~site:"list.iter.write"
                                    (v "it") (v "nxt");
                                  load ~manual:false ~site:"list.iter.read"
                                    "node" (v "it");
                                ] );
                            Call
                              {
                                dst = None;
                                func = "map_remove";
                                args = [ Global "vac_custmap"; v "cid" ];
                              };
                            Free (v "cust");
                          ],
                          [] );
                    ];
                  Return (i 0);
                ];
            };
            {
              name = "vac_update_tables";
              params = [ "id"; "price"; "add" ];
              body =
                [
                  Atomic
                    [
                      Call
                        {
                          dst = Some "r";
                          func = "map_find";
                          args = [ Global "vac_resmap"; v "id" ];
                        };
                      If
                        ( v "r" <>: i 0,
                          [
                            If
                              ( v "add",
                                [
                                  store ~site:"vacation.res.price_w"
                                    (v "r" +: i 3) (v "price");
                                ],
                                [
                                  Call
                                    {
                                      dst = None;
                                      func = "map_remove";
                                      args = [ Global "vac_resmap"; v "id" ];
                                    };
                                  Free (v "r");
                                ] );
                          ],
                          [
                            If
                              ( v "add",
                                [
                                  Malloc
                                    { dst = "nr"; words = i 4; label = "vac.res" };
                                  store ~manual:false
                                    ~site:"vacation.res_init.total" (v "nr")
                                    (i 4);
                                  store ~manual:false
                                    ~site:"vacation.res_init.used"
                                    (v "nr" +: i 1) (i 0);
                                  store ~manual:false
                                    ~site:"vacation.res_init.free"
                                    (v "nr" +: i 2) (i 4);
                                  store ~manual:false
                                    ~site:"vacation.res_init.price"
                                    (v "nr" +: i 3) (v "price");
                                  Call
                                    {
                                      dst = None;
                                      func = "map_insert";
                                      args = [ Global "vac_resmap"; v "id"; v "nr" ];
                                    };
                                ],
                                [] );
                          ] );
                    ];
                  Return (i 0);
                ];
            };
          ];
    }

let mk ~high name desc =
  {
    App.name;
    description = desc;
    prepare = (fun ~nthreads ~scale config -> prepare ~high ~nthreads ~scale config);
    model;
  }

let high =
  mk ~high:true "vacation-high"
    "travel reservations, 4 queries/txn over 60% of the tables"

let low =
  mk ~high:false "vacation-low"
    "travel reservations, 2 queries/txn over 90% of the tables"
