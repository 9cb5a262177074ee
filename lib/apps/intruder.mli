(** STAMP intruder analogue: network intrusion detection.

    Flows are split into fragments arriving out of order on a shared
    queue.  Threads take fragments in one transaction per fragment,
    which decodes the fragment the thread holds and pops the next one
    last (STAMP pops in a transaction of its own), and reassemble them
    in a shared session map — session records, per-flow fragment lists
    and the final assembled buffer are all allocated *inside*
    transactions (captured) — and run the signature detector on
    completed, privatised buffers outside any transaction.  Detected
    attacks bump a shared counter. *)

val app : App.t
