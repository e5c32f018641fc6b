(** Platform cost accounting — the objective function. *)

val of_alloc : Insp_platform.Catalog.t -> Alloc.t -> float
(** Total purchase price: sum over processors of chassis + CPU upgrade +
    NIC upgrade. *)

val per_proc : Insp_platform.Catalog.t -> Alloc.t -> float array

val lower_bound_cost : Insp_tree.Graph.t -> Insp_platform.Catalog.t -> float
(** A valid (weak) lower bound on the optimal platform cost of an
    operator-graph view (a tree passes [Graph.of_app app]): the cheapest
    configuration's price times a lower bound on the number of
    processors any feasible solution needs — total compute (the sum of
    every node's rate times work) over the fastest CPU and total
    mandatory download traffic (the distinct object types of all leaves)
    over the widest NIC (each rounded up), whichever is larger. *)
