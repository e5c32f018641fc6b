(** Generation of {e correlated} application sets: several continuous
    queries over the same object catalog that share common
    sub-expressions (the realistic setting for the paper's §6 multi-
    application future work — e.g. several dashboards over the same
    sensor deployment). *)

val instance :
  seed:int ->
  n_apps:int ->
  n_operators:int ->
  (Insp_tree.App.t list * Insp_platform.Platform.t)
(** Paper-default platform plus a correlated application set, all
    deterministic in [seed]: [n_apps] random binary trees of
    [n_operators] operators each that graft, with probability 0.5, one
    of four shared 3-operator sub-expressions wherever a subtree of
    that size is needed; sizes, frequencies, alpha, work constants and
    rho taken from [Insp_workload.Config.make ~n_operators ~seed ()]. *)
