(** Placement of a shared operator DAG onto purchasable processors:
    {!Insp_heuristics.Solve.run_graph} on the DAG's operator-graph view
    with the Subtree-Bottom-Up heuristic under its DAG rules
    ({!Insp_heuristics.H_subtree.Dag}).

    Placement is {!Insp_heuristics.H_subtree.run}; server selection,
    downgrade and validation are the tree pipeline's, over the same
    view.  Every probe is an incremental ledger probe with the checker's
    stream semantics: one stream per (producer, destination processor),
    at the fastest consumer there. *)

type outcome = Insp_heuristics.Solve.outcome = {
  alloc : Insp_mapping.Alloc.t;
  cost : float;
  n_procs : int;
}

type failure = Insp_heuristics.Solve.failure =
  | Placement of string
  | Server_selection of string
  | Validation of string

val failure_message : failure -> string

val run :
  Dag.t -> Insp_platform.Platform.t -> (outcome, failure) result
(** Deterministic.  Every returned outcome passes {!Dag_check.check}.
    Placement failures name DAG nodes ("no processor can host nodes
    {…}") and a placement that exhausts its round budget reports
    "placement did not converge". *)
