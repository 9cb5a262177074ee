module Site = Captured_core.Site

type handle = int

(* Layout: [0]=nbuckets, [1..nbuckets] = Tlist handles. *)
let site_nbuckets_r =
  Site.declare ~init_only:true ~write:false "hashtable.nbuckets_r"
let site_bucket_r =
  Site.declare ~init_only:true ~write:false "hashtable.bucket_r"
let site_init_nbuckets =
  Site.declare ~manual:false ~write:true "hashtable.init.nbuckets"
let site_init_bucket =
  Site.declare ~manual:false ~write:true "hashtable.init.bucket"

let hash key nbuckets = ((key * 0x9E3779B97F4A7C1) land max_int lsr 32) mod nbuckets

let create (acc : Access.t) ?(buckets = 64) () =
  let n = max 1 buckets in
  let h = acc.alloc (1 + n) in
  acc.write ~site:site_init_nbuckets h n;
  for k = 1 to n do
    acc.write ~site:site_init_bucket (h + k) (Tlist.create acc)
  done;
  h

let buckets (acc : Access.t) h = acc.read ~site:site_nbuckets_r h

let bucket_of (acc : Access.t) h key =
  let n = buckets acc h in
  acc.read ~site:site_bucket_r (h + 1 + hash key n)

let size (acc : Access.t) h =
  let n = buckets acc h in
  let total = ref 0 in
  for k = 1 to n do
    total := !total + Tlist.size acc (acc.read ~site:site_bucket_r (h + k))
  done;
  !total

let insert (acc : Access.t) h ~key ~value =
  Tlist.insert acc (bucket_of acc h key) ~key ~value

let find (acc : Access.t) h key = Tlist.find acc (bucket_of acc h key) key
let remove (acc : Access.t) h key = Tlist.remove acc (bucket_of acc h key) key
