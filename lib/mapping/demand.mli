(** Resource demand of a group of operators placed together on one
    processor.

    This is the arithmetic shared by the placement heuristics, the
    downgrade step and the constraint checker, so that "does this group
    fit on that configuration?" is answered identically everywhere.

    For a group [g] of operators of application [app]:
    - [compute]  = sum of [rho * w_i] over [g] (Mops/s) — constraint (1)
      rearranged as [compute <= s_u];
    - [download] = sum of [rate_k] over the *distinct* object types in
      [Leaf(g)] (an object needed by several co-located operators is
      downloaded once, paper §2.3);
    - [comm_in]  = sum of [rho * delta_j] over operator children [j] of
      members of [g] with [j] outside [g];
    - [comm_out] = sum of [rho * delta_i] over members [i] of [g] whose
      parent exists and lies outside [g].

    The NIC load is [download + comm_in + comm_out] — constraint (2). *)

type t = {
  compute : float;
  download : float;
  comm_in : float;
  comm_out : float;
}

val nic : t -> float
(** [download + comm_in + comm_out]. *)

val of_group : Insp_tree.App.t -> int list -> t
(** Demand of a set of operators placed together.  Duplicate ids are
    ignored. *)

val of_operator : Insp_tree.App.t -> int -> t
(** Demand of a singleton group. *)

val distinct_objects : Insp_tree.App.t -> int list -> int list
(** Distinct object types in [Leaf(g)], sorted. *)

val fits :
  Insp_platform.Catalog.config -> t -> bool
(** Capacity test: [compute <= speed] and [nic <= bandwidth], with a
    relative tolerance of 1e-9. *)

val max_crossing_edge : Insp_tree.App.t -> int list -> float
(** Largest single tree-edge flow (MB/s) crossing the group boundary —
    a necessary lower bound on the processor-to-processor link bandwidth
    (constraint (5)). *)
