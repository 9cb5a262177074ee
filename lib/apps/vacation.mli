(** STAMP vacation analogue: travel reservation system.

    A manager holds ordered maps of cars, flights and rooms (id ->
    resource record) plus a customer map (id -> customer record with a
    reservation list).  Clients run three transaction kinds:

    - make-reservation: query several random resources, pick one, create
      the customer on demand, allocate a reservation-info record *inside
      the transaction* (captured) and link it into the customer's list;
    - delete-customer: walk the reservation list with a transaction-stack
      iterator (paper Figure 1(a)), release each resource, free the
      records;
    - update-tables: add/remove resources, allocating records in the
      transaction.

    High contention narrows the queried id range and raises queries per
    transaction (STAMP's -q60 -n4 vs -q90 -n2, scaled).  Vacation is the
    paper's headline result: elision removes most write barriers and the
    associated false conflicts (Table 1), giving 14-18 % at 16 threads. *)

val high : App.t
val low : App.t

(** [tally_reservations acc customer_map] counts the reservations every
    customer's list holds per (resource type, resource id), as the
    verifier does; an [Error] names the customer, the reservation and
    its info record when a type word names no resource table. *)
val tally_reservations :
  Captured_tstruct.Access.t ->
  int ->
  ((int * int, int) Hashtbl.t, string) result
