(** IR models of the transactional data-structure operations.

    Each function mirrors the control flow, allocation behaviour and —
    crucially — the *site labels* of its {!Captured_tstruct} counterpart,
    so the compiler capture analysis inlining these into an application's
    transaction model produces verdicts valid for the natively compiled
    code.  The runtime cross-check ([audit_static_violations]) guards the
    correspondence.

    Conventions: lists are [(header, key, value)] etc. exactly as in
    tstruct; all functions return 0 unless stated. *)

val funcs : Captured_tmir.Ir.func list
(** [list_create; list_insert; list_remove; list_find; list_iter_sum;
    map_insert; map_update; map_find; map_remove; queue_push; queue_pop;
    heap_insert; heap_pop; vector_push; hashtable_insert; hashtable_find;
    hashtable_remove] — add these to an app model's function
    list and call them from its transaction functions. *)
