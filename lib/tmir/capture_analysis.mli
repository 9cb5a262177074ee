(** Compiler capture analysis (paper, §3.2).

    A flow-sensitive intraprocedural points-to analysis extended across
    calls by inlining (bounded depth), exactly the structure of the Intel
    C++ compiler implementation the paper describes.  Abstract locations
    are allocation sites ([malloc] labels), stack slots ([alloca] labels),
    globals and Unknown; each allocation records which atomic scopes were
    open when it executed.  A load/store site is *captured* iff on every
    analyzed path its address denotes only locations allocated inside the
    (dynamically) innermost atomic block enclosing the access — so the
    barrier can be elided.

    The analysis is conservative: it may miss captured sites (false
    negatives cost elisions), and a qcheck harness cross-checks against
    the interpreter's precise runtime tracking that it never produces a
    false positive. *)

type verdict = {
  site : string;
  captured : bool;
  shared : bool;
      (** Every analyzed in-atomic access denotes only global memory:
          runtime capture checks at this site are provably useless and a
          hybrid configuration skips them — the optimisation the paper's
          §3.2 closes with as future work. *)
  manual : bool;
  visits : int;  (** analyzed in-atomic occurrences (0 = never reached) *)
}

type result

(** [analyze ?inline_depth program] runs the analysis over every function
    (each is a potential transaction entry point).  [inline_depth]
    defaults to 5. *)
val analyze : ?inline_depth:int -> Ir.program -> result

val verdicts : result -> verdict list

(** [apply result] loads every captured and definitely-shared verdict
    into the global {!Captured_core.Site} table (after a
    [Site.reset_verdicts]). *)
val apply : result -> unit

val pp : Format.formatter -> result -> unit
