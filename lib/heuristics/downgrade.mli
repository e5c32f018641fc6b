(** The downgrade step (paper §4.2, end): once operators and download
    sources are fixed, each processor is replaced by the cheapest
    catalog configuration that still satisfies its CPU and network-card
    requirements.  A no-op on homogeneous catalogs. *)

val run :
  Insp_tree.App.t ->
  Insp_platform.Platform.t ->
  Insp_mapping.Alloc.t ->
  Insp_mapping.Alloc.t
(** Never changes the operator assignment or the download plan; never
    increases cost; preserves feasibility. *)

val run_graph :
  Insp_tree.Graph.t ->
  Insp_platform.Platform.t ->
  Insp_mapping.Alloc.t ->
  Insp_mapping.Alloc.t
(** {!run} on an operator graph whose node [i] is the allocation's
    operator [i]: the DAG placer's downgrade, with the same demands as
    {!Insp_mapping.Check.check_graph}. *)
