(** Mixed-integer programs over {!Simplex}: the LP relaxation that
    bounds the paper's ILP (§3, {!Ilp_model}). *)

type t = {
  problem : Simplex.problem;
  integer_vars : int list;  (** indices that must be integral *)
}

val relaxation_bound : t -> float option
(** Objective of the root LP relaxation; [None] when infeasible or
    unbounded. *)
