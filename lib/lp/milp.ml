type t = {
  problem : Simplex.problem;
  integer_vars : int list;
}

let relaxation_bound t =
  match Simplex.solve t.problem with
  | Simplex.Optimal s -> Some s.objective_value
  | Simplex.Infeasible | Simplex.Unbounded -> None
