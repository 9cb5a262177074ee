open Captured_tmir.Ir

(* The models must be *conservative stand-ins*: every site must be visited
   with pointer sets at least as general as the real code's.  Structure
   headers and interior nodes reached by traversal evaluate to the
   caller's argument set or Unknown; only writes that the real code makes
   to just-allocated blocks may appear as captured. *)

let func name params body = { name; params; body }

(* ------------------------------------------------------------------ *)
(* Tlist: node = {key, val, next}, header = {first, size}              *)

let list_create =
  func "list_create" []
    [
      Malloc { dst = "h"; words = i 2; label = "list.header" };
      store ~manual:false ~site:"list.header_init.first" (v "h") (i 0);
      store ~manual:false ~site:"list.header_init.size" (v "h" +: i 1) (i 0);
      Return (v "h");
    ]

(* Shared traversal: prev/curr walk.  Loads give Unknown, which keeps all
   interior-node sites conservative. *)
let locate_body =
  [
    Let ("prev", i 0);
    load ~site:"list.header.first_r" "curr" (v "lst");
    Let ("go", i 1);
    While
      ( v "go",
        [
          If
            ( v "curr" =: i 0,
              [ Let ("go", i 0) ],
              [
                load ~site:"list.traverse.key" "k" (v "curr");
                If
                  ( v "k" <: v "key",
                    [
                      Let ("prev", v "curr");
                      load ~site:"list.traverse.next" "curr" (v "curr" +: i 2);
                    ],
                    [ Let ("go", i 0) ] );
              ] );
        ] );
  ]

let list_insert =
  func "list_insert" [ "lst"; "key"; "value" ]
    (locate_body
    @ [
        Let ("exists", i 0);
        If
          ( v "curr" <>: i 0,
            [
              load ~site:"list.traverse.key" "k2" (v "curr");
              If (v "k2" =: v "key", [ Let ("exists", i 1) ], []);
            ],
            [] );
        If
          ( Not (v "exists"),
            [
              Malloc { dst = "node"; words = i 3; label = "list.node" };
              store ~manual:false ~site:"list.node_init.key" (v "node")
                (v "key");
              store ~manual:false ~site:"list.node_init.val" (v "node" +: i 1)
                (v "value");
              store ~manual:false ~site:"list.node_init.next" (v "node" +: i 2)
                (v "curr");
              If
                ( v "prev" =: i 0,
                  [ store ~site:"list.header.first_w" (v "lst") (v "node") ],
                  [ store ~site:"list.link.next" (v "prev" +: i 2) (v "node") ]
                );
              load ~site:"list.size_r" "sz" (v "lst" +: i 1);
              store ~site:"list.size_w" (v "lst" +: i 1) (v "sz" +: i 1);
            ],
            [] );
        Return (Not (v "exists"));
      ])

let list_remove =
  func "list_remove" [ "lst"; "key" ]
    (locate_body
    @ [
        Let ("found", i 0);
        If
          ( v "curr" <>: i 0,
            [
              load ~site:"list.traverse.key" "k2" (v "curr");
              If
                ( v "k2" =: v "key",
                  [
                    load ~site:"list.remove.next_r" "nxt" (v "curr" +: i 2);
                    If
                      ( v "prev" =: i 0,
                        [ store ~site:"list.header.first_w" (v "lst") (v "nxt") ],
                        [
                          store ~site:"list.unlink.next" (v "prev" +: i 2)
                            (v "nxt");
                        ] );
                    Free (v "curr");
                    load ~site:"list.size_r" "sz" (v "lst" +: i 1);
                    store ~site:"list.size_w" (v "lst" +: i 1) (v "sz" -: i 1);
                    Let ("found", i 1);
                  ],
                  [] );
            ],
            [] );
        Return (v "found");
      ])

let list_find =
  func "list_find" [ "lst"; "key" ]
    (locate_body
    @ [
        Let ("result", i 0);
        If
          ( v "curr" <>: i 0,
            [
              load ~site:"list.traverse.key" "k2" (v "curr");
              If
                ( v "k2" =: v "key",
                  [ load ~site:"list.find.val" "result" (v "curr" +: i 1) ],
                  [] );
            ],
            [] );
        Return (v "result");
      ])

(* Iterate a list through a cursor slot (the caller passes stack memory,
   as in paper Figure 1(a)). *)
let list_iter_sum =
  func "list_iter_sum" [ "lst"; "iter" ]
    [
      load ~site:"list.header.first_r" "f" (v "lst");
      store ~manual:false ~site:"list.iter.write" (v "iter") (v "f");
      Let ("acc", i 0);
      load ~manual:false ~site:"list.iter.read" "node" (v "iter");
      While
        ( v "node" <>: i 0,
          [
            load ~site:"list.traverse.key" "k" (v "node");
            load ~site:"list.find.val" "x" (v "node" +: i 1);
            Let ("acc", v "acc" +: v "x");
            load ~site:"list.traverse.next" "nxt" (v "node" +: i 2);
            store ~manual:false ~site:"list.iter.write" (v "iter") (v "nxt");
            load ~manual:false ~site:"list.iter.read" "node" (v "iter");
          ] );
      Return (v "acc");
    ]

(* ------------------------------------------------------------------ *)
(* Tmap (treap): node = {key, val, left, right}, header = {root, size}; *)
(* a node's priority derives from its key                              *)

let map_descend =
  [
    load ~site:"map.root_r" "n" (v "map");
    Let ("parent", i 0);
    Let ("go", i 1);
    Let ("found", i 0);
    While
      ( v "go",
        [
          If
            ( v "n" =: i 0,
              [ Let ("go", i 0) ],
              [
                load ~site:"map.key_r" "k" (v "n");
                If
                  ( v "k" =: v "key",
                    [ Let ("go", i 0); Let ("found", i 1) ],
                    [
                      Let ("parent", v "n");
                      If
                        ( v "key" <: v "k",
                          [ load ~site:"map.left_r" "n" (v "n" +: i 2) ],
                          [ load ~site:"map.right_r" "n" (v "n" +: i 3) ] );
                    ] );
              ] );
        ] );
  ]

(* Insert models the fresh-node initialisation as captured and every link
   write (parent link, rotations) against traversal-derived (Unknown)
   nodes — conservative for the real rotation code, which also writes the
   fresh node's fields through the same shared sites. *)
let map_insert_body ~with_update =
  map_descend
  @ [
      If
        ( v "found",
          (if with_update then
             [ store ~site:"map.val_w" (v "n" +: i 1) (v "value") ]
           else []),
          [
            Malloc { dst = "node"; words = i 4; label = "map.node" };
            store ~manual:false ~site:"map.node_init.key" (v "node") (v "key");
            store ~manual:false ~site:"map.node_init.val" (v "node" +: i 1)
              (v "value");
            store ~manual:false ~site:"map.node_init.left" (v "node" +: i 2)
              (i 0);
            store ~manual:false ~site:"map.node_init.right" (v "node" +: i 3)
              (i 0);
            If
              ( v "parent" =: i 0,
                [ store ~site:"map.root_w" (v "map") (v "node") ],
                [
                  (* Parent link + rotation writes: all on shared nodes;
                     rotations also rewrite the fresh node's links through
                     the same sites, which keeps them conservative. *)
                  store ~site:"map.left_w" (v "parent" +: i 2) (v "node");
                  store ~site:"map.right_w" (v "parent" +: i 3) (v "node");
                  (* The rotation test ranks the parent's key, which the
                     descent read last, against the new key. *)
                  If
                    ( v "k" *: i 31 <: v "key" *: i 31,
                      [
                        store ~site:"map.left_w" (v "node" +: i 2) (v "parent");
                        store ~site:"map.right_w" (v "node" +: i 3)
                          (v "parent");
                        store ~site:"map.root_w" (v "map") (v "node");
                      ],
                      [] );
                ] );
          ] );
      Return (Not (v "found"));
    ]

let map_insert =
  func "map_insert" [ "map"; "key"; "value" ] (map_insert_body ~with_update:false)

let map_update =
  func "map_update" [ "map"; "key"; "value" ] (map_insert_body ~with_update:true)

let map_find =
  func "map_find" [ "map"; "key" ]
    (map_descend
    @ [
        Let ("result", i 0);
        If
          (v "found", [ load ~site:"map.val_r" "result" (v "n" +: i 1) ], []);
        Return (v "result");
      ])

let map_remove =
  func "map_remove" [ "map"; "key" ]
    (map_descend
    @ [
        If
          ( v "found",
            [
              (* The subtrees merge into the parent link: spine-link
                 writes on shared nodes, then free. *)
              load ~site:"map.left_r" "l" (v "n" +: i 2);
              load ~site:"map.right_r" "r" (v "n" +: i 3);
              store ~site:"map.left_w" (v "r" +: i 2) (v "l");
              store ~site:"map.right_w" (v "l" +: i 3) (v "r");
              If
                ( v "parent" =: i 0,
                  [ store ~site:"map.root_w" (v "map") (v "l") ],
                  [
                    store ~site:"map.left_w" (v "parent" +: i 2) (v "l");
                    store ~site:"map.right_w" (v "parent" +: i 3) (v "r");
                  ] );
              Free (v "n");
            ],
            [] );
        Return (v "found");
      ])

(* ------------------------------------------------------------------ *)
(* Tqueue: header = {pop, push, cap, data}                             *)

let queue_push =
  func "queue_push" [ "q"; "value" ]
    [
      load ~site:"queue.pop_r" "pop" (v "q");
      load ~site:"queue.push_r" "push" (v "q" +: i 1);
      load ~site:"queue.cap_r" "cap" (v "q" +: i 2);
      If
        ( v "push" =: v "pop",
          [
            (* Grow: fresh buffer is captured; old-slot reads and header
               writes are shared. *)
            load ~site:"queue.data_r" "data" (v "q" +: i 3);
            Malloc { dst = "nd"; words = v "cap" *: i 2; label = "queue.data" };
            Let ("k", i 0);
            While
              ( v "k" <: v "cap",
                [
                  load ~site:"queue.slot_r" "x" (v "data" +: v "k");
                  store ~manual:false ~site:"queue.grow.slot_w"
                    (v "nd" +: v "k") (v "x");
                  Let ("k", v "k" +: i 1);
                ] );
            Free (v "data");
            store ~site:"queue.data_w" (v "q" +: i 3) (v "nd");
            store ~site:"queue.pop_w" (v "q") ((v "cap" *: i 2) -: i 1);
            store ~site:"queue.push_w" (v "q" +: i 1) (v "cap");
            store ~site:"queue.cap_w" (v "q" +: i 2) (v "cap" *: i 2);
            store ~site:"queue.slot_w" (v "nd" +: v "cap") (v "value");
          ],
          [
            load ~site:"queue.data_r" "data" (v "q" +: i 3);
            store ~site:"queue.slot_w" (v "data" +: v "push") (v "value");
            store ~site:"queue.push_w" (v "q" +: i 1) (v "push" +: i 1);
          ] );
      Return (i 0);
    ]

let queue_pop =
  func "queue_pop" [ "q" ]
    [
      load ~site:"queue.pop_r" "pop" (v "q");
      load ~site:"queue.push_r" "push" (v "q" +: i 1);
      load ~site:"queue.cap_r" "cap" (v "q" +: i 2);
      Let ("first", Binop (Mod, v "pop" +: i 1, v "cap"));
      Let ("result", i 0);
      If
        ( Not (v "first" =: v "push"),
          [
            load ~site:"queue.data_r" "data" (v "q" +: i 3);
            load ~site:"queue.slot_r" "result" (v "data" +: v "first");
            store ~site:"queue.pop_w" (v "q") (v "first");
          ],
          [] );
      Return (v "result");
    ]

(* ------------------------------------------------------------------ *)
(* Theap: header = {size, cap, data}                                   *)

let heap_insert =
  func "heap_insert" [ "h"; "value" ]
    [
      load ~site:"heap.size_r" "n" (v "h");
      load ~site:"heap.cap_r" "cap" (v "h" +: i 1);
      If
        ( v "n" =: v "cap",
          [
            load ~site:"heap.data_r" "data" (v "h" +: i 2);
            Malloc { dst = "nd"; words = v "cap" *: i 2; label = "heap.data" };
            Let ("k", i 0);
            While
              ( v "k" <: v "n",
                [
                  load ~site:"heap.slot_r" "x" (v "data" +: v "k");
                  store ~manual:false ~site:"heap.grow.slot_w" (v "nd" +: v "k")
                    (v "x");
                  Let ("k", v "k" +: i 1);
                ] );
            Free (v "data");
            store ~site:"heap.data_w" (v "h" +: i 2) (v "nd");
            store ~site:"heap.cap_w" (v "h" +: i 1) (v "cap" *: i 2);
          ],
          [] );
      load ~site:"heap.data_r" "data" (v "h" +: i 2);
      store ~site:"heap.slot_w" (v "data" +: v "n") (v "value");
      (* Sift-up swaps on shared slots. *)
      Let ("k", v "n");
      While
        ( v "k" >: i 0,
          [
            Let ("par", Binop (Div, v "k" -: i 1, i 2));
            load ~site:"heap.slot_r" "a" (v "data" +: v "par");
            load ~site:"heap.slot_r" "b" (v "data" +: v "k");
            store ~site:"heap.slot_w" (v "data" +: v "par") (v "b");
            store ~site:"heap.slot_w" (v "data" +: v "k") (v "a");
            Let ("k", v "par");
          ] );
      store ~site:"heap.size_w" (v "h") (v "n" +: i 1);
      Return (i 0);
    ]

let heap_pop =
  func "heap_pop" [ "h" ]
    [
      load ~site:"heap.size_r" "n" (v "h");
      Let ("result", i 0);
      If
        ( v "n" >: i 0,
          [
            load ~site:"heap.data_r" "data" (v "h" +: i 2);
            load ~site:"heap.slot_r" "result" (v "data");
            load ~site:"heap.slot_r" "last" (v "data" +: v "n" -: i 1);
            store ~site:"heap.size_w" (v "h") (v "n" -: i 1);
            store ~site:"heap.slot_w" (v "data") (v "last");
            (* Sift-down swaps. *)
            Let ("k", i 0);
            While
              ( v "k" <: v "n",
                [
                  load ~site:"heap.slot_r" "a" (v "data" +: v "k");
                  store ~site:"heap.slot_w" (v "data" +: v "k") (v "a");
                  Let ("k", (v "k" *: i 2) +: i 1);
                ] );
          ],
          [] );
      Return (v "result");
    ]

(* ------------------------------------------------------------------ *)
(* Tvector: header = {size, cap, data}                                 *)

let vector_push =
  func "vector_push" [ "vec"; "value" ]
    [
      load ~site:"vector.size_r" "n" (v "vec");
      load ~site:"vector.cap_r" "cap" (v "vec" +: i 1);
      If
        ( v "n" =: v "cap",
          [
            load ~site:"vector.data_r" "data" (v "vec" +: i 2);
            Malloc { dst = "nd"; words = v "cap" *: i 2; label = "vector.data" };
            Let ("k", i 0);
            While
              ( v "k" <: v "n",
                [
                  load ~site:"vector.slot_r" "x" (v "data" +: v "k");
                  store ~manual:false ~site:"vector.grow.slot_w"
                    (v "nd" +: v "k") (v "x");
                  Let ("k", v "k" +: i 1);
                ] );
            Free (v "data");
            store ~site:"vector.data_w" (v "vec" +: i 2) (v "nd");
            store ~site:"vector.cap_w" (v "vec" +: i 1) (v "cap" *: i 2);
          ],
          [] );
      load ~site:"vector.data_r" "data" (v "vec" +: i 2);
      store ~site:"vector.slot_w" (v "data" +: v "n") (v "value");
      store ~site:"vector.size_w" (v "vec") (v "n" +: i 1);
      Return (i 0);
    ]

let vector_create =
  func "vector_create" [ "cap" ]
    [
      Malloc { dst = "h"; words = i 3; label = "vector.header" };
      Malloc { dst = "d"; words = v "cap"; label = "vector.data0" };
      store ~manual:false ~site:"vector.init.size" (v "h") (i 0);
      store ~manual:false ~site:"vector.init.cap" (v "h" +: i 1) (v "cap");
      store ~manual:false ~site:"vector.init.data" (v "h" +: i 2) (v "d");
      Return (v "h");
    ]

(* ------------------------------------------------------------------ *)
(* Thashtable: header = {nbuckets, bucket list handles...}             *)

let hashtable_insert =
  func "hashtable_insert" [ "tbl"; "key"; "value" ]
    [
      load ~site:"hashtable.nbuckets_r" "nb" (v "tbl");
      load ~site:"hashtable.bucket_r" "lst"
        (v "tbl" +: i 1 +: Binop (Mod, v "key", v "nb"));
      Call
        {
          dst = Some "r";
          func = "list_insert";
          args = [ v "lst"; v "key"; v "value" ];
        };
      Return (v "r");
    ]

let hashtable_find =
  func "hashtable_find" [ "tbl"; "key" ]
    [
      load ~site:"hashtable.nbuckets_r" "nb" (v "tbl");
      load ~site:"hashtable.bucket_r" "lst"
        (v "tbl" +: i 1 +: Binop (Mod, v "key", v "nb"));
      Call { dst = Some "r"; func = "list_find"; args = [ v "lst"; v "key" ] };
      Return (v "r");
    ]

let hashtable_remove =
  func "hashtable_remove" [ "tbl"; "key" ]
    [
      load ~site:"hashtable.nbuckets_r" "nb" (v "tbl");
      load ~site:"hashtable.bucket_r" "lst"
        (v "tbl" +: i 1 +: Binop (Mod, v "key", v "nb"));
      Call { dst = Some "r"; func = "list_remove"; args = [ v "lst"; v "key" ] };
      Return (v "r");
    ]

let funcs =
  [
    list_create;
    list_insert;
    list_remove;
    list_find;
    list_iter_sum;
    map_insert;
    map_update;
    map_find;
    map_remove;
    queue_push;
    queue_pop;
    heap_insert;
    heap_pop;
    vector_push;
    vector_create;
    hashtable_insert;
    hashtable_find;
    hashtable_remove;
  ]
