module Site = Captured_core.Site

type handle = int

let site_first_r = Site.declare ~write:false "pair.first_r"
let site_second_r = Site.declare ~write:false "pair.second_r"
let site_first_w = Site.declare ~write:true "pair.first_w"
let site_init_first = Site.declare ~manual:false ~write:true "pair.init.first"
let site_init_second = Site.declare ~manual:false ~write:true "pair.init.second"

let create (acc : Access.t) ~first ~second =
  let p = acc.alloc 2 in
  acc.write ~site:site_init_first p first;
  acc.write ~site:site_init_second (p + 1) second;
  p

let destroy (acc : Access.t) p = acc.free p
let first (acc : Access.t) p = acc.read ~site:site_first_r p
let second (acc : Access.t) p = acc.read ~site:site_second_r (p + 1)
let set_first (acc : Access.t) p v = acc.write ~site:site_first_w p v
