(** Exact branch-and-bound solver for the homogeneous (CONSTR-HOM)
    operator-mapping problem — the role CPLEX plays in the paper's §5
    comparison, restricted as the paper is to small instances.

    The search reads an operator-graph view ({!Insp_tree.Graph}), a tree
    or a shared DAG, and assigns operators in preorder from the roots,
    each either to an existing group or to one fresh group (canonical
    first-fit ordering removes processor symmetry).  The groups are the
    processors of one {!Insp_mapping.Ledger}: a candidate must pass the
    ledger's probe under the heuristics' own capacity and link tests,
    and backtracking undoes it with
    {!Insp_mapping.Ledger.remove_operator}.  Complete assignments
    additionally go through server selection and the full constraint
    checker before being accepted.  The bound is
    [groups_used + ceil(remaining_work / speed)]. *)

type result = {
  n_procs : int;
  cost : float;
  alloc : Insp_mapping.Alloc.t;
  proven : bool;  (** false when the node limit truncated the search *)
  nodes : int;
}

val solve :
  ?node_limit:int ->
  Insp_tree.Graph.t ->
  Insp_platform.Platform.t ->
  (result, string) Stdlib.result
(** A tree passes [Graph.of_app app], a DAG [Dag.graph dag].
    [node_limit] defaults to 2_000_000.  At most one group per operator
    is opened.  Errors when the platform is not homogeneous or no
    feasible solution exists within the limits. *)
