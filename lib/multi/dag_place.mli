(** Placement of a shared operator DAG onto purchasable processors — the
    Subtree-Bottom-Up strategy generalised to DAGs.

    Algorithm: every al-node (node downloading at least one basic
    object) gets its own most-expensive processor, deepest (most remote
    from the sinks) first; processors then repeatedly absorb the
    consumers of their nodes (adding unassigned consumers, or merging in
    the consumer's whole processor); leftover nodes take fresh
    processors with the iterative grouping fallback; a final
    consolidation pass folds small processors into neighbours; then
    server selection (the paper's three-loop heuristic over the DAG's
    needs), downgrade, and full validation.

    The placement state is the heuristics' own
    {!Insp_heuristics.Builder} over the DAG's operator-graph view, so
    every probe is an incremental ledger probe with the checker's
    stream semantics: one stream per (producer, destination processor),
    at the fastest consumer there. *)

type outcome = {
  alloc : Insp_mapping.Alloc.t;
  cost : float;
  n_procs : int;
}

type failure =
  | Placement of string
  | Server_selection of string
  | Validation of string

val failure_message : failure -> string

val run :
  Dag.t -> Insp_platform.Platform.t -> (outcome, failure) result
(** Deterministic.  Every returned outcome passes {!Dag_check.check}. *)
