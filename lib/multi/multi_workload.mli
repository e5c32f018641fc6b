(** Generation of {e correlated} application sets: several continuous
    queries over the same object catalog that share common
    sub-expressions (the realistic setting for the paper's §6 multi-
    application future work — e.g. several dashboards over the same
    sensor deployment). *)

val correlated_trees :
  Insp_util.Prng.t ->
  n_apps:int ->
  n_operators:int ->
  n_object_types:int ->
  ?n_pool:int ->
  ?pool_operators:int ->
  ?share_prob:float ->
  unit ->
  Insp_tree.Optree.t list
(** Builds [n_apps] random binary trees of [n_operators] operators each.
    A pool of [n_pool] (default 4) random sub-expressions of
    [pool_operators] (default 3) operators is drawn first; whenever a
    generated tree needs a leaf, with probability [share_prob] (default
    0.5) it instead grafts a pool sub-expression (identical across all
    grafts, hence sharable).  Each graft counts towards the tree's
    operator budget. *)

val instance :
  seed:int ->
  n_apps:int ->
  n_operators:int ->
  (Insp_tree.App.t list * Insp_platform.Platform.t)
(** Paper-default platform plus a correlated application set, all
    deterministic in [seed]: trees from {!correlated_trees} with sizes,
    frequencies, alpha, work constants and rho taken from
    [Insp_workload.Config.make ~n_operators ~seed ()]. *)
