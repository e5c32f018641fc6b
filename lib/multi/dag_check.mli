(** Constraint checking for DAG allocations — the paper's constraints
    (1)–(5) generalised to shared operators.

    Differences from the tree checker ({!Insp_mapping.Check}):
    - compute load of a node is [rate_i * w_i] (its own required rate,
      not one global rho);
    - a node's output crossing to another processor is ONE stream per
      destination processor, at the fastest rate any consumer there
      needs: a processor hosting two consumers of the same remote node
      receives the stream once;
    - download plans and server constraints are unchanged.

    Allocations reuse {!Insp_mapping.Alloc} with node ids in place of
    operator ids, and violations reuse {!Insp_mapping.Check.violation}. *)

type demand = {
  compute : float;  (** Mops/s *)
  download : float;  (** MB/s over the group's distinct object inputs *)
  comm_in : float;  (** MB/s from external producer nodes (dedup) *)
  comm_out : float;
      (** MB/s to external consumers — exact per-destination dedup when
          computed from an allocation, conservative per-consumer when
          computed from a bare group *)
}

val nic : demand -> float

val group_demand : Dag.t -> in_group:(int -> bool) -> int list -> demand
(** Conservative demand of co-locating the given nodes: external
    consumers are each assumed to live on distinct processors.  Only
    decreases when other nodes join neighbouring groups, making it safe
    for incremental placement.  The member list must be sorted and
    duplicate-free, and [in_group] must answer membership of exactly
    those nodes — in O(1) for callers that keep a marker, such as
    {!Dag_place}'s stamped node arrays. *)

val proc_demand : Dag.t -> Insp_mapping.Alloc.t -> int -> demand
(** Exact demand of processor [u] under a complete allocation
    (per-destination stream dedup). *)

val distinct_objects : Dag.t -> int list -> int list
(** Distinct object types the group downloads. *)

val check :
  Dag.t ->
  Insp_platform.Platform.t ->
  Insp_mapping.Alloc.t ->
  Insp_mapping.Check.violation list
(** Every violated constraint, in the tree checker's order.  Constraint
    (5) is one sweep over the stream edges: each processor's outgoing
    streams are summed per destination once, and only the processor
    pairs a stream crosses are visited, in ascending order, with loads
    bit-identical to summing every pair's two directions separately. *)

