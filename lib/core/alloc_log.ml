type backend = Tree | Array | Filter

let backend_name = function
  | Tree -> "tree"
  | Array -> "array"
  | Filter -> "filtering"

let all_backends = [ Tree; Array; Filter ]

type repr =
  | Rtree of Range_tree.t
  | Rarray of Range_array.t
  | Rfilter of Range_filter.t

type t = {
  declared : backend;
  mutable repr : repr; (* mutated only by Array -> Tree promotion *)
  mutable blocks : int;
  cache : Capture_cache.t option;
  promote : bool;
  mutable promotions : int;
}

let create ?filter_buckets ?(fastpath = false) backend =
  let repr =
    match backend with
    | Tree -> Rtree (Range_tree.create ())
    | Array -> Rarray (Range_array.create ())
    | Filter -> Rfilter (Range_filter.create ?buckets:filter_buckets ())
  in
  {
    declared = backend;
    repr;
    blocks = 0;
    cache = (if fastpath then Some (Capture_cache.create ()) else None);
    promote = fastpath;
    promotions = 0;
  }

let backend t = t.declared
let fastpath t = Option.is_some t.cache
let promotions t = t.promotions
let promoted t = t.promotions > 0

type added = Kept | Promoted | Dropped

let add t ~lo ~hi =
  let status =
    match t.repr with
    | Rtree r ->
        Range_tree.insert r ~lo ~hi;
        Kept
    | Rarray r ->
        if Range_array.insert r ~lo ~hi then Kept
        else if not t.promote then Dropped
        else begin
          (* Saturated: promote in place to the precise tree instead of
             silently going conservative, carrying every tracked range
             over (the failed insert bumped [dropped]; harmless, the
             array is discarded). *)
          let tree = Range_tree.create () in
          Range_array.iter r (fun ~lo ~hi -> Range_tree.insert tree ~lo ~hi);
          Range_tree.insert tree ~lo ~hi;
          t.repr <- Rtree tree;
          t.promotions <- t.promotions + 1;
          Promoted
        end
    | Rfilter r ->
        Range_filter.insert r ~lo ~hi;
        Kept
  in
  (match status with
  | Kept | Promoted ->
      t.blocks <- t.blocks + 1;
      (match t.cache with
      | Some c -> Capture_cache.note_add c ~lo ~hi
      | None -> ())
  | Dropped -> ());
  status

let remove t ~lo ~hi =
  let removed =
    match t.repr with
    | Rtree r -> Range_tree.remove r ~lo
    | Rarray r -> Range_array.remove r ~lo
    | Rfilter r ->
        (* The filter cannot tell a tracked block from an untracked one;
           trust the caller.  A phantom remove can only under-count, which
           costs elision opportunities, never correctness. *)
        Range_filter.remove r ~lo ~hi;
        true
  in
  if removed then begin
    if t.blocks > 0 then t.blocks <- t.blocks - 1;
    match t.cache with
    | Some c -> Capture_cache.note_remove c ~lo ~hi
    | None -> ()
  end;
  removed

let backend_contains t ~lo ~hi =
  match t.repr with
  | Rtree r -> Range_tree.contains r ~lo ~hi
  | Rarray r -> Range_array.contains r ~lo ~hi
  | Rfilter r -> Range_filter.contains r ~lo ~hi

let backend_find t ~lo ~hi =
  match t.repr with
  | Rtree r -> Range_tree.find r ~lo ~hi
  | Rarray r -> Range_array.find r ~lo ~hi
  | Rfilter _ -> None (* no block structure; the probe range itself is MRU *)

type probe = Summary_reject | Mru_hit | Backend_hit | Backend_miss

(* The MRU tier only pays for itself when the backend probe it short-cuts
   is worth skipping: a filter probe is already O(1), and a log holding at
   most one block is answered by the envelope alone — in both cases the
   tier is dead weight on the common fall-through path, so it is skipped
   (the cache itself stays maintained: the envelope summary still runs,
   and the tier re-arms as soon as the log grows past one block). *)
let mru_tier_active t =
  Option.is_some t.cache && t.declared <> Filter && t.blocks > 1

let probe t ~lo ~hi =
  match t.cache with
  | None -> if backend_contains t ~lo ~hi then Backend_hit else Backend_miss
  | Some c -> (
      match Capture_cache.check c ~lo ~hi with
      | Capture_cache.Reject -> Summary_reject
      | Capture_cache.Hit
        when Capture_cache.exact c || mru_tier_active t ->
          (* An exact envelope (single block, nothing removed) decides
             both ways with the bounds compare alone — callers price this
             hit as a summary check, so one-block transactions (the
             genome/array shape) never pay for the skipped tier. *)
          Mru_hit
      | Capture_cache.Hit | Capture_cache.Unknown ->
          if backend_contains t ~lo ~hi then begin
            (* Cache the whole containing block when the backend knows it,
               so neighbouring words of the same block repeat-hit too. *)
            (match backend_find t ~lo ~hi with
            | Some (blo, bhi) -> Capture_cache.note_hit c ~lo:blo ~hi:bhi
            | None -> Capture_cache.note_hit c ~lo ~hi);
            Backend_hit
          end
          else Backend_miss)

let contains t ~lo ~hi =
  match probe t ~lo ~hi with
  | Mru_hit | Backend_hit -> true
  | Summary_reject | Backend_miss -> false

let size t = t.blocks

(* Cost model: a tree probe touches O(depth) nodes; an array probe scans its
   (tiny) occupancy; a filter probe is one hash+compare per probed word
   (accesses are almost always single words, so charge one). *)
let search_cost t =
  match t.repr with
  | Rtree r -> 3 + (2 * Range_tree.depth r)
  | Rarray r -> 2 + Range_array.size r
  | Rfilter _ -> 4

let add_cost t ~lo ~hi =
  match t.repr with
  | Rtree r -> 6 + (3 * Range_tree.depth r)
  | Rarray _ -> 3
  | Rfilter _ -> 2 * (hi - lo)

let clear t =
  (match t.repr with
  | Rtree r ->
      (* A promoted log reverts to its declared cache-line array: the next
         transaction starts on the cheap backend again. *)
      if t.declared = Array then
        t.repr <- Rarray (Range_array.create ())
      else Range_tree.clear r
  | Rarray r -> Range_array.clear r
  | Rfilter r -> Range_filter.clear r);
  t.blocks <- 0;
  match t.cache with Some c -> Capture_cache.clear c | None -> ()
