(** Site tier: the per-thread, per-site front of the [+fp] capture-check
    hierarchy.

    Runtime capture checks pay only at sites that touch captured memory,
    and whether a site does is mostly a static property of the site (a
    tree's key field is always shared; the fields an insert initialises
    are always captured).  The tier keeps, per static site, the hit count
    of its last {!window} checks.  A site that hit fewer than {!min_hits}
    times in a window (a hit rate below 1/16) is {e bypassed}: its
    accesses skip the stack and heap checks and go straight to the full
    barrier.  One bypassed access in {!sample_every} is still checked, so
    the rate keeps updating and a site that starts hitting is turned back
    on after at most [window * sample_every] accesses.

    The table is a preallocated [int array] owned by one thread: checks
    allocate nothing and write nothing another domain reads.  Ids at or
    beyond the table size (sites declared after the thread was created)
    are never bypassed. *)

type t

val window : int
(** Checks per window: 64. *)

val sample_every : int
(** While bypassed, one access in this many is checked: 16. *)

val min_hits : int
(** A window with fewer hits than this (4, i.e. a hit rate below 1/16)
    bypasses its site for the next window.  {!Costs.site_check} gives the
    reason for the threshold. *)

val create : sites:int -> t
(** A table covering site ids [\[0, sites)], every site checked. *)

val bypass : t -> Captured_core.Site.id -> bool
(** [bypass t site] — [true] when this access at [site] skips the capture
    check.  Advances the site's sampling counter, so call it once per
    access. *)

val record : t -> Captured_core.Site.id -> hit:bool -> unit
(** [record t site ~hit] accounts one capture check made at [site]
    ([hit]: it found the address captured).  Closing a window decides
    whether the site is bypassed during the next one. *)
