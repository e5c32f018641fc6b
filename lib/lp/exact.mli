(** Exact branch-and-bound solver for the homogeneous (CONSTR-HOM)
    operator-mapping problem — the role CPLEX plays in the paper's §5
    comparison, restricted as the paper is to small instances.

    The search assigns operators in preorder, each either to an existing
    group or to one fresh group (canonical first-fit ordering removes
    processor symmetry).  A group must satisfy its compute and NIC
    capacity ({!Insp_mapping.Demand}) and the pairwise link constraint
    at every step; complete assignments additionally go through server
    selection and the full constraint checker before being accepted.
    The bound is [groups_used + ceil(remaining_work / speed)]. *)

type result = {
  n_procs : int;
  cost : float;
  alloc : Insp_mapping.Alloc.t;
  proven : bool;  (** false when the node limit truncated the search *)
  nodes : int;
}

val solve :
  ?node_limit:int ->
  ?max_groups:int ->
  Insp_tree.App.t ->
  Insp_platform.Platform.t ->
  (result, string) Stdlib.result
(** [node_limit] defaults to 2_000_000; [max_groups] defaults to the
    number of operators.  Errors when the platform is not homogeneous or
    no feasible solution exists within the limits. *)
