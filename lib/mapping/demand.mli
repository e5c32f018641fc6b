(** Resource demand of a group of operators placed together on one
    processor.

    This is the arithmetic shared by the placement heuristics, the
    downgrade step and the constraint checker, so that "does this group
    fit on that configuration?" is answered identically everywhere.

    For a group [g] of nodes of an operator-graph view
    ({!Insp_tree.Graph}), node [i] running at rate [r_i]:
    - [compute]  = sum of [r_i * w_i] over [g] (Mops/s) — constraint (1)
      rearranged as [compute <= s_u];
    - [download] = sum of [rate_k] over the *distinct* object types in
      [Leaf(g)] (an object needed by several co-located operators is
      downloaded once, paper §2.3);
    - [comm_in]  = one stream per producer [j] outside [g] feeding a
      member: [delta_j] times the fastest rate of its consumers in [g];
    - [comm_out] = [delta_i * r_c] for every member [i] and every
      consumer [c] of [i] outside [g]: each outside consumer is assumed
      to live on a processor of its own, so the demand only decreases
      when other nodes join neighbouring groups.

    On a tree every rate is [rho], and these are [rho * delta] over the
    crossing tree edges.  The NIC load is [download + comm_in + comm_out]
    — constraint (2). *)

type t = {
  compute : float;
  download : float;
  comm_in : float;
  comm_out : float;
}

val nic : t -> float
(** [download + comm_in + comm_out]. *)

val of_group : Insp_tree.Graph.t -> int list -> t
(** Demand of a set of nodes placed together.  Duplicate ids are
    ignored.  A tree passes [Graph.of_app app]. *)

val of_operator : Insp_tree.Graph.t -> int -> t
(** Demand of a singleton group. *)

val fits :
  Insp_platform.Catalog.config -> t -> bool
(** Capacity test: [compute <= speed] and [nic <= bandwidth], with a
    relative tolerance of 1e-9. *)
