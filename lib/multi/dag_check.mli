(** Constraint checking for DAG allocations — the paper's constraints
    (1)–(5) generalised to shared operators.

    The checker itself is {!Insp_mapping.Check.check_graph} on the DAG's
    operator-graph view ({!Dag.graph}): a node's compute load is
    [rate_i * w_i], and its output crosses to another processor as ONE
    stream per destination processor, at the fastest rate any consumer
    there needs.  Download plans and server constraints are those of
    trees.  This module adds the conservative group demand the DAG
    placer probes with.

    Allocations reuse {!Insp_mapping.Alloc} with node ids in place of
    operator ids, and violations reuse {!Insp_mapping.Check.violation}. *)

val group_demand :
  Dag.t -> in_group:(int -> bool) -> int list -> Insp_mapping.Demand.t
(** Conservative demand of co-locating the given nodes: external
    consumers are each assumed to live on distinct processors, so
    [comm_out] is one stream per external consumer.  Only decreases
    when other nodes join neighbouring groups, making it safe for
    incremental placement.  The member list must be sorted and
    duplicate-free, and [in_group] must answer membership of exactly
    those nodes — in O(1) for callers that keep a marker, such as
    {!Dag_place}'s stamped node arrays. *)

val check :
  Dag.t ->
  Insp_platform.Platform.t ->
  Insp_mapping.Alloc.t ->
  Insp_mapping.Check.violation list
(** [Check.check_graph (Dag.graph dag)]: every violated constraint, in
    the tree checker's order. *)
