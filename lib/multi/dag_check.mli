(** Constraint checking for DAG allocations — the paper's constraints
    (1)–(5) generalised to shared operators.

    The checker is {!Insp_mapping.Check.check_graph} on the DAG's
    operator-graph view ({!Dag.graph}): a node's compute load is
    [rate_i * w_i], and its output crosses to another processor as ONE
    stream per destination processor, at the fastest rate any consumer
    there needs.  Download plans and server constraints are those of
    trees.  Placement probes the same semantics incrementally, through
    the ledger behind [Insp_heuristics.Builder] ({!Dag_place}).

    Allocations reuse {!Insp_mapping.Alloc} with node ids in place of
    operator ids, and violations reuse {!Insp_mapping.Check.violation}. *)

val check :
  Dag.t ->
  Insp_platform.Platform.t ->
  Insp_mapping.Alloc.t ->
  Insp_mapping.Check.violation list
(** [Check.check_graph (Dag.graph dag)]: every violated constraint, in
    the tree checker's order. *)
