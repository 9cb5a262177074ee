module Site = Captured_core.Site

let window = 64
let sample_every = 16
let min_hits = window / 16

(* Three ints per site, at [3 * id]: checks in the current window, hits
   in it, and the sampling counter — 0 while the site is checked, else
   1 + the accesses bypassed since its last sampled check. *)
type t = int array

let stride = 3
let create ~sites = Array.make (stride * sites) 0

let bypass t site =
  let k = (stride * (site : Site.id :> int)) + 2 in
  k < Array.length t
  &&
  let b = Array.unsafe_get t k in
  b > 0
  &&
  if b >= sample_every then begin
    Array.unsafe_set t k 1;
    false
  end
  else begin
    Array.unsafe_set t k (b + 1);
    true
  end

let record t site ~hit =
  let i = stride * (site : Site.id :> int) in
  if i < Array.length t then begin
    let checks = Array.unsafe_get t i + 1 in
    let hits = Array.unsafe_get t (i + 1) + if hit then 1 else 0 in
    if checks < window then begin
      Array.unsafe_set t i checks;
      Array.unsafe_set t (i + 1) hits
    end
    else begin
      Array.unsafe_set t i 0;
      Array.unsafe_set t (i + 1) 0;
      Array.unsafe_set t (i + 2) (if hits < min_hits then 1 else 0)
    end
  end
