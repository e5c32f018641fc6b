(* Reference implementations the suites compare production code against.
   Each needs only public types; production never runs them. *)

module Optree = Insp.Optree
module Simplex = Insp.Simplex

(* A point satisfies every constraint of the LP (and non-negativity)
   within 1e-6. *)
let lp_feasible (problem : Simplex.problem) point =
  let n = Array.length problem.Simplex.objective in
  Array.length point = n
  && Array.for_all (fun v -> v >= -1e-6) point
  && List.for_all
       (fun (c : Simplex.constr) ->
         let lhs = ref 0.0 in
         for j = 0 to n - 1 do
           lhs := !lhs +. (c.Simplex.coeffs.(j) *. point.(j))
         done;
         match c.Simplex.relation with
         | Simplex.Le -> !lhs <= c.Simplex.bound +. 1e-6
         | Simplex.Ge -> !lhs >= c.Simplex.bound -. 1e-6
         | Simplex.Eq -> Float.abs (!lhs -. c.Simplex.bound) <= 1e-6)
       problem.Simplex.constraints

(* Depth-first branch and bound over Simplex relaxations: each node
   solves the LP relaxation, prunes on bound or infeasibility, and
   otherwise branches on the first integer variable with a fractional
   value by adding [x <= floor v] / [x >= ceil v].  [proven] is false
   when [node_limit] nodes did not finish the search. *)
type milp_result = { solution : Simplex.solution option; proven : bool }

let milp_solve ?(node_limit = 100_000) (t : Insp.Milp.t) =
  let problem = t.Insp.Milp.problem in
  let n = Array.length problem.Simplex.objective in
  let better a b = if problem.Simplex.maximize then a > b else a < b in
  let unit_row j =
    let coeffs = Array.make n 0.0 in
    coeffs.(j) <- 1.0;
    coeffs
  in
  let fractional (sol : Simplex.solution) =
    List.find_opt
      (fun j ->
        let v = sol.Simplex.values.(j) in
        Float.abs (v -. Float.round v) > 1e-6)
      t.Insp.Milp.integer_vars
  in
  let best = ref None and nodes = ref 0 and truncated = ref false in
  let rec explore extra =
    if !nodes >= node_limit then truncated := true
    else begin
      incr nodes;
      match
        Simplex.solve
          { problem with
            Simplex.constraints = problem.Simplex.constraints @ extra }
      with
      | Simplex.Infeasible -> ()
      | Simplex.Unbounded -> truncated := true
      | Simplex.Optimal sol -> (
        let dominated =
          match !best with
          | Some (b : Simplex.solution) ->
            not (better sol.Simplex.objective_value b.Simplex.objective_value)
          | None -> false
        in
        if not dominated then
          match fractional sol with
          | None -> best := Some sol
          | Some j ->
            let lo = Float.floor sol.Simplex.values.(j) in
            explore
              ({ Simplex.coeffs = unit_row j; relation = Simplex.Le; bound = lo }
              :: extra);
            explore
              ({ Simplex.coeffs = unit_row j; relation = Simplex.Ge;
                 bound = lo +. 1.0 }
              :: extra))
    end
  in
  explore [];
  { solution = !best; proven = not !truncated }

(* Solve the §3 ILP exactly: [Some (processors used, operator groups)],
   or [None] when no integral solution was found within [node_limit]
   nodes. *)
let ilp_solve ?(node_limit = 20_000) (t : Insp.Ilp_model.t) =
  match (milp_solve ~node_limit t.Insp.Ilp_model.milp).solution with
  | None -> None
  | Some sol ->
    let max_procs = t.Insp.Ilp_model.max_procs in
    let groups = Array.make max_procs [] in
    for i = t.Insp.Ilp_model.n_operators - 1 downto 0 do
      let u = ref (-1) in
      for cand = 0 to max_procs - 1 do
        if sol.Simplex.values.(t.Insp.Ilp_model.x_index i cand) > 0.5 then
          u := cand
      done;
      if !u >= 0 then groups.(!u) <- i :: groups.(!u)
    done;
    let used = Array.to_list groups |> List.filter (fun g -> g <> []) in
    Some (List.length used, Array.of_list used)

(* Sorted object types of the tree's leaf instances: what every
   rewrite must preserve. *)
let leaf_multiset tree =
  Optree.leaf_instances tree |> List.map snd |> List.sort compare

(* Canonical key of a spec modulo commutativity. *)
type key = KLeaf of int | KOp1 of key | KOp of key * key

let rec canon (spec : Optree.spec) =
  match spec with
  | Optree.Obj k -> KLeaf k
  | Optree.Op1 a -> KOp1 (canon a)
  | Optree.Op (a, b) ->
    let ka = canon a and kb = canon b in
    if ka <= kb then KOp (ka, kb) else KOp (kb, ka)

let dedup specs =
  List.sort_uniq (fun a b -> compare (canon a) (canon b)) specs

(* Every distinct binary shape (modulo commutativity) over a leaf
   multiset of 2-10 object types: split into an unordered pair of
   non-empty sub-multisets and recurse. *)
let enumerate_shapes ~n_object_types ~leaves =
  let n = List.length leaves in
  if n < 2 || n > 10 then invalid_arg "enumerate_shapes: 2-10 leaves";
  let table = Hashtbl.create 64 in
  let rec shapes leaves =
    match Hashtbl.find_opt table leaves with
    | Some r -> r
    | None ->
      let r =
        match leaves with
        | [ k ] -> [ Optree.Obj k ]
        | _ ->
          let arr = Array.of_list leaves in
          let n = Array.length arr in
          let pairs = ref [] in
          for mask = 1 to (1 lsl n) - 2 do
            let left = ref [] and right = ref [] in
            for i = 0 to n - 1 do
              if mask land (1 lsl i) <> 0 then left := arr.(i) :: !left
              else right := arr.(i) :: !right
            done;
            let l = List.sort compare !left and r = List.sort compare !right in
            pairs := (if l <= r then (l, r) else (r, l)) :: !pairs
          done;
          List.sort_uniq compare !pairs
          |> List.concat_map (fun (ls, rs) ->
                 List.concat_map
                   (fun a -> List.map (fun b -> Optree.Op (a, b)) (shapes rs))
                   (shapes ls))
          |> dedup
      in
      Hashtbl.replace table leaves r;
      r
  in
  shapes (List.sort compare leaves) |> List.map (Optree.of_spec ~n_object_types)
