(** A complete application: operator tree + object catalog + cost model.

    Following the paper's simulation methodology (§5), the computation
    amount of operator [i] with inputs [l] and [r] is
    [w_i = (delta_l + delta_r)^alpha] Mops, and its output size is
    [delta_i = delta_l + delta_r] MB, where an input's [delta] is either
    the basic object's size or the child operator's output size.  The
    target throughput is [rho] results per second (the paper fixes
    [rho = 1]). *)

type t

val make :
  ?rho:float ->
  ?base_work:float ->
  ?work_factor:float ->
  tree:Optree.t ->
  objects:Objects.t ->
  alpha:float ->
  unit ->
  t
(** Computes [w_i] and [delta_i] bottom-up with
    [w_i = base_work + work_factor * (delta_l + delta_r)^alpha].
    [base_work] (default 0) is a fixed per-operator overhead;
    [work_factor] (default 1) converts MB^alpha to Mops.  The paper's
    formula is the special case (0, 1); the workload generator uses
    calibrated values to anchor per-processor operator capacity and the
    alpha feasibility thresholds (see DESIGN.md §3).  Raises
    [Invalid_argument] if the tree references object types beyond the
    catalog, if [rho], [alpha] or [work_factor] is not strictly
    positive, or if [base_work] is negative. *)

val tree : t -> Optree.t
val objects : t -> Objects.t
val alpha : t -> float
val base_work : t -> float
val work_factor : t -> float
val rho : t -> float
(** Required application throughput (results/s). *)

val n_operators : t -> int

val work : t -> int -> float
(** [work t i] = [w_i] in Mops per result. *)

val output_size : t -> int -> float
(** [output_size t i] = [delta_i] in MB per result. *)

val works : t -> float array
val output_sizes : t -> float array
(** Every operator's {!work} / {!output_size}, indexed by operator: the
    application's own arrays, shared so that hot loops read them without
    boxing a float per call.  Callers must not mutate them. *)

val download_rate : t -> int -> float
(** [download_rate t k] = [rate_k] for object type [k] (MB/s). *)

val total_work : t -> float
(** Sum of all [w_i] (Mops per result). *)

val heaviest_operator : t -> int
(** Operator id with the largest [w_i]. *)
