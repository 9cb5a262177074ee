(** The build a report came from. *)

val profile : string
(** The dune profile this code was compiled under: ["release"] for the
    default build, which inlines across modules, ["dev"] under
    [--profile dev], which compiles every module [-opaque]. *)
