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

val run_measured :
  Insp_mapping.Check.measurement ->
  Insp_platform.Platform.t ->
  Insp_mapping.Alloc.t ->
  Insp_mapping.Alloc.t
(** {!run} on an operator graph (a tree or a DAG) whose node [i] is the
    allocation's operator [i], given its [Check.measure g alloc]: the
    demands and plan download rates it reads, which are the check's. *)
