(** Dense two-phase primal simplex.

    Substitute for the commercial CPLEX solver the paper uses (§5): large
    enough for the LP relaxations of the paper's small homogeneous
    instances, written from scratch with no external dependencies.

    Problems are given in the form

    {v minimize    c . x
       subject to  row_i . x  (<= | = | >=)  b_i     for each row
                   x >= 0 v}

    Maximisation is [solve ~maximize:true].  Bland's rule guards against
    cycling; a small tolerance (1e-9) is used for pivoting decisions. *)

type relation = Le | Eq | Ge

type constr = { coeffs : float array; relation : relation; bound : float }

type problem = {
  objective : float array;
  constraints : constr list;
  maximize : bool;
}

type solution = {
  values : float array;  (** optimal assignment, length = #variables *)
  objective_value : float;
}

type outcome =
  | Optimal of solution
  | Infeasible
  | Unbounded

val solve : problem -> outcome
(** Raises [Invalid_argument] on ragged input (a constraint row whose
    width differs from the objective). *)
