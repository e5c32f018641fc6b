(* Tests for the LP substrate: simplex, branch-and-bound MILP, the
   paper's ILP model and the exact combinatorial solver. *)

module Simplex = Insp.Simplex
module Milp = Insp.Milp
module Ilp_model = Insp.Ilp_model
module Exact = Insp.Exact
module Solve = Insp.Solve
module Check = Insp.Check
module Instance = Insp.Instance
module Config = Insp.Config

let qtest = Helpers.qtest

let le coeffs bound = { Simplex.coeffs; relation = Simplex.Le; bound }
let ge coeffs bound = { Simplex.coeffs; relation = Simplex.Ge; bound }
let eq coeffs bound = { Simplex.coeffs; relation = Simplex.Eq; bound }

(* ------------------------------------------------------------------ *)
(* Simplex on known problems                                           *)

let test_lp_max_basic () =
  (* max 3x+2y st x+y<=4, x+3y<=6 -> (4,0), 12 *)
  let p =
    {
      Simplex.objective = [| 3.0; 2.0 |];
      constraints = [ le [| 1.0; 1.0 |] 4.0; le [| 1.0; 3.0 |] 6.0 ];
      maximize = true;
    }
  in
  match Simplex.solve p with
  | Simplex.Optimal s ->
    Helpers.alco_float "objective" 12.0 s.Simplex.objective_value;
    Helpers.alco_float "x" 4.0 s.Simplex.values.(0);
    Helpers.alco_float "y" 0.0 s.Simplex.values.(1)
  | _ -> Alcotest.fail "expected optimal"

let test_lp_min_with_ge () =
  (* min x+y st x+2y>=4, 3x+y>=6 -> intersection (1.6,1.2), 2.8 *)
  let p =
    {
      Simplex.objective = [| 1.0; 1.0 |];
      constraints = [ ge [| 1.0; 2.0 |] 4.0; ge [| 3.0; 1.0 |] 6.0 ];
      maximize = false;
    }
  in
  match Simplex.solve p with
  | Simplex.Optimal s ->
    Helpers.alco_float ~eps:1e-6 "objective" 2.8 s.Simplex.objective_value
  | _ -> Alcotest.fail "expected optimal"

let test_lp_equality () =
  (* min 2x+y st x+y=3, x<=2 -> (2,1), 5?? check: minimize => prefer y:
     x=0,y=3 gives 3. *)
  let p =
    {
      Simplex.objective = [| 2.0; 1.0 |];
      constraints = [ eq [| 1.0; 1.0 |] 3.0; le [| 1.0; 0.0 |] 2.0 ];
      maximize = false;
    }
  in
  match Simplex.solve p with
  | Simplex.Optimal s ->
    Helpers.alco_float "objective" 3.0 s.Simplex.objective_value;
    Helpers.alco_float "y" 3.0 s.Simplex.values.(1)
  | _ -> Alcotest.fail "expected optimal"

let test_lp_infeasible () =
  let p =
    {
      Simplex.objective = [| 1.0 |];
      constraints = [ le [| 1.0 |] 1.0; ge [| 1.0 |] 2.0 ];
      maximize = false;
    }
  in
  Alcotest.(check bool) "infeasible" true (Simplex.solve p = Simplex.Infeasible)

let test_lp_unbounded () =
  let p =
    {
      Simplex.objective = [| 1.0 |];
      constraints = [ ge [| 1.0 |] 1.0 ];
      maximize = true;
    }
  in
  Alcotest.(check bool) "unbounded" true (Simplex.solve p = Simplex.Unbounded)

let test_lp_negative_rhs () =
  (* min x st -x <= -3  (i.e. x >= 3) *)
  let p =
    {
      Simplex.objective = [| 1.0 |];
      constraints = [ le [| -1.0 |] (-3.0) ];
      maximize = false;
    }
  in
  match Simplex.solve p with
  | Simplex.Optimal s -> Helpers.alco_float "x" 3.0 s.Simplex.values.(0)
  | _ -> Alcotest.fail "expected optimal"

let test_lp_degenerate () =
  (* Classic cycling-prone instance; Bland's rule must terminate. *)
  let p =
    {
      Simplex.objective = [| -0.75; 150.0; -0.02; 6.0 |];
      constraints =
        [
          le [| 0.25; -60.0; -0.04; 9.0 |] 0.0;
          le [| 0.5; -90.0; -0.02; 3.0 |] 0.0;
          le [| 0.0; 0.0; 1.0; 0.0 |] 1.0;
        ];
      maximize = false;
    }
  in
  match Simplex.solve p with
  | Simplex.Optimal s ->
    Helpers.alco_float ~eps:1e-6 "beale optimum" (-0.05)
      s.Simplex.objective_value
  | _ -> Alcotest.fail "expected optimal"

(* Random feasible-by-construction LPs: point x0 >= 0 satisfies Ax <= b
   by construction, so the LP is feasible, and the simplex optimum for
   minimisation is <= c.x0. *)
let lp_gen =
  QCheck.make
    ~print:(fun (n, m, seed) -> Printf.sprintf "n=%d m=%d seed=%d" n m seed)
    QCheck.Gen.(triple (1 -- 6) (1 -- 6) (0 -- 10_000))

let random_lp (n, m, seed) =
  let rng = Insp.Prng.create seed in
  let x0 = Array.init n (fun _ -> Insp.Prng.float_range rng 0.0 5.0) in
  let rows =
    List.init m (fun _ ->
        let coeffs = Array.init n (fun _ -> Insp.Prng.float_range rng (-3.0) 3.0) in
        let lhs = ref 0.0 in
        Array.iteri (fun j c -> lhs := !lhs +. (c *. x0.(j))) coeffs;
        le coeffs (!lhs +. Insp.Prng.float_range rng 0.0 2.0))
  in
  let objective = Array.init n (fun _ -> Insp.Prng.float_range rng (-2.0) 2.0) in
  ({ Simplex.objective; constraints = rows; maximize = false }, x0)

let lp_random_feasible =
  qtest ~count:200 "random feasible LPs solved soundly" lp_gen (fun params ->
      let p, x0 = random_lp params in
      match Simplex.solve p with
      | Simplex.Infeasible -> false (* x0 is feasible *)
      | Simplex.Unbounded -> true (* possible with negative costs *)
      | Simplex.Optimal s ->
        let obj_x0 =
          Array.to_list x0
          |> List.mapi (fun j v -> p.Simplex.objective.(j) *. v)
          |> List.fold_left ( +. ) 0.0
        in
        Oracles.lp_feasible p s.Simplex.values
        && s.Simplex.objective_value <= obj_x0 +. 1e-6)

(* ------------------------------------------------------------------ *)
(* MILP                                                                *)

let test_milp_knapsack () =
  (* max 5x+4y st 6x+5y <= 10, x,y integer (implicitly bounded by the
     capacity row) -> y=2: 8 *)
  let p =
    {
      Simplex.objective = [| 5.0; 4.0 |];
      constraints = [ le [| 6.0; 5.0 |] 10.0 ];
      maximize = true;
    }
  in
  let r = Oracles.milp_solve { Milp.problem = p; integer_vars = [ 0; 1 ] } in
  match r.Oracles.solution with
  | Some s ->
    Helpers.alco_float "objective" 8.0 s.Simplex.objective_value;
    Alcotest.(check bool) "proven" true r.Oracles.proven
  | None -> Alcotest.fail "expected solution"

let test_milp_integrality () =
  (* max x st 2x <= 3 -> LP 1.5, MILP 1 *)
  let p =
    {
      Simplex.objective = [| 1.0 |];
      constraints = [ le [| 2.0 |] 3.0 ];
      maximize = true;
    }
  in
  let t = { Milp.problem = p; integer_vars = [ 0 ] } in
  (match Milp.relaxation_bound t with
  | Some b -> Helpers.alco_float "relaxation" 1.5 b
  | None -> Alcotest.fail "relaxation should be optimal");
  match (Oracles.milp_solve t).Oracles.solution with
  | Some s -> Helpers.alco_float "integral" 1.0 s.Simplex.values.(0)
  | None -> Alcotest.fail "expected solution"

let test_milp_infeasible_integer () =
  (* 0.4 <= x <= 0.6 has no integer point. *)
  let p =
    {
      Simplex.objective = [| 1.0 |];
      constraints = [ ge [| 1.0 |] 0.4; le [| 1.0 |] 0.6 ];
      maximize = false;
    }
  in
  let r = Oracles.milp_solve { Milp.problem = p; integer_vars = [ 0 ] } in
  Alcotest.(check bool) "no solution" true (r.Oracles.solution = None);
  Alcotest.(check bool) "proven" true r.Oracles.proven

let milp_solution_is_integral =
  qtest ~count:100 "MILP solutions are integral and feasible" lp_gen
    (fun params ->
      let p, _ = random_lp params in
      let n = Array.length p.Simplex.objective in
      (* Bound variables so the MILP cannot be unbounded. *)
      let bounds =
        List.init n (fun j ->
            let coeffs = Array.make n 0.0 in
            coeffs.(j) <- 1.0;
            le coeffs 10.0)
      in
      let p = { p with Simplex.constraints = p.Simplex.constraints @ bounds } in
      let t = { Milp.problem = p; integer_vars = List.init n Fun.id } in
      let r = Oracles.milp_solve ~node_limit:5000 t in
      match r.Oracles.solution with
      | None -> true
      | Some s ->
        Oracles.lp_feasible p s.Simplex.values
        && Array.for_all
             (fun v -> Float.abs (v -. Float.round v) < 1e-5)
             s.Simplex.values)

(* ------------------------------------------------------------------ *)
(* ILP model + exact solver on instances                               *)

let homog inst = Instance.homogeneous inst ~cpu_index:4 ~nic_index:3

let test_ilp_tiny () =
  let inst = homog (Helpers.instance ~n:5 ~seed:3 ()) in
  let model =
    Ilp_model.build inst.Instance.app inst.Instance.platform ~max_procs:3
  in
  (match Ilp_model.lower_bound model with
  | Some b -> Alcotest.(check bool) "bound positive" true (b > 0.0)
  | None -> Alcotest.fail "relaxation should be feasible");
  match Oracles.ilp_solve ~node_limit:5000 model with
  | Some (n_procs, groups) ->
    Alcotest.(check bool) "few procs" true (n_procs >= 1 && n_procs <= 3);
    let all = Array.to_list groups |> List.concat |> List.sort compare in
    Alcotest.(check (list int)) "partition" [ 0; 1; 2; 3; 4 ] all
  | None -> Alcotest.fail "expected ILP solution"

let test_ilp_requires_homogeneous () =
  let inst = Helpers.instance ~n:5 ~seed:3 () in
  Alcotest.check_raises "heterogeneous rejected"
    (Invalid_argument "Ilp_model.build: platform must be homogeneous \
                       (CONSTR-HOM)") (fun () ->
      ignore (Ilp_model.build inst.Instance.app inst.Instance.platform ~max_procs:2))

let test_exact_requires_homogeneous () =
  let inst = Helpers.instance ~n:5 ~seed:3 () in
  match Exact.solve inst.Instance.app inst.Instance.platform with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "heterogeneous platform must be rejected"

let exact_gen =
  QCheck.map
    (fun (seed, n) -> (seed, n))
    QCheck.(pair (int_range 0 500) (int_range 3 12))

let exact_beats_heuristics =
  qtest ~count:25 "exact optimum <= every heuristic (homogeneous)" exact_gen
    (fun (seed, n) ->
      let inst = homog (Helpers.instance ~n ~seed ()) in
      match Exact.solve ~node_limit:300_000 inst.Instance.app inst.Instance.platform with
      | Error _ -> true (* infeasible or truncated: nothing to compare *)
      | Ok r ->
        (not r.Exact.proven)
        || List.for_all
             (fun (_, res) ->
               match res with
               | Ok (o : Solve.outcome) -> r.Exact.cost <= o.cost +. 1e-6
               | Error _ -> true)
             (Solve.run_all ~seed inst.Instance.app inst.Instance.platform))

let exact_solution_feasible =
  qtest ~count:25 "exact solutions pass the checker" exact_gen
    (fun (seed, n) ->
      let inst = homog (Helpers.instance ~n ~seed ()) in
      match Exact.solve ~node_limit:300_000 inst.Instance.app inst.Instance.platform with
      | Error _ -> true
      | Ok r ->
        Check.check inst.Instance.app inst.Instance.platform r.Exact.alloc = [])

let exact_respects_lower_bound =
  qtest ~count:25 "exact >= quick lower bound" exact_gen (fun (seed, n) ->
      let inst = homog (Helpers.instance ~n ~seed ()) in
      match Exact.solve ~node_limit:300_000 inst.Instance.app inst.Instance.platform with
      | Error _ -> true
      | Ok r ->
        (* homogeneous: every processor costs the cheapest config *)
        r.Exact.cost
        >= Insp.Cost.lower_bound_cost inst.Instance.app
             inst.Instance.platform.Insp.Platform.catalog
           -. 1e-6)

let test_exact_matches_ilp_on_small () =
  (* Cross-validate the two exact methods on a handful of tiny
     instances. *)
  List.iter
    (fun seed ->
      let inst = homog (Helpers.instance ~n:5 ~seed ()) in
      let exact =
        match Exact.solve inst.Instance.app inst.Instance.platform with
        | Ok r -> Some r.Exact.n_procs
        | Error _ -> None
      in
      let ilp =
        let model =
          Ilp_model.build inst.Instance.app inst.Instance.platform ~max_procs:4
        in
        Option.map fst (Oracles.ilp_solve ~node_limit:20_000 model)
      in
      match (exact, ilp) with
      | Some a, Some b ->
        (* The ILP omits constraint (5); it may be at most lower. *)
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: ilp (%d) <= exact (%d)" seed b a)
          true (b <= a)
      | _ -> ())
    [ 1; 2; 3 ]

let () =
  Alcotest.run "lp"
    [
      ( "simplex",
        [
          Alcotest.test_case "max basic" `Quick test_lp_max_basic;
          Alcotest.test_case "min with >=" `Quick test_lp_min_with_ge;
          Alcotest.test_case "equality" `Quick test_lp_equality;
          Alcotest.test_case "infeasible" `Quick test_lp_infeasible;
          Alcotest.test_case "unbounded" `Quick test_lp_unbounded;
          Alcotest.test_case "negative rhs" `Quick test_lp_negative_rhs;
          Alcotest.test_case "degenerate (Beale)" `Quick test_lp_degenerate;
          lp_random_feasible;
        ] );
      ( "milp",
        [
          Alcotest.test_case "knapsack" `Quick test_milp_knapsack;
          Alcotest.test_case "integrality" `Quick test_milp_integrality;
          Alcotest.test_case "integer-infeasible" `Quick
            test_milp_infeasible_integer;
          milp_solution_is_integral;
        ] );
      ( "ilp+exact",
        [
          Alcotest.test_case "ilp tiny" `Quick test_ilp_tiny;
          Alcotest.test_case "ilp needs CONSTR-HOM" `Quick
            test_ilp_requires_homogeneous;
          Alcotest.test_case "exact needs CONSTR-HOM" `Quick
            test_exact_requires_homogeneous;
          Alcotest.test_case "exact vs ilp" `Quick test_exact_matches_ilp_on_small;
          exact_beats_heuristics;
          exact_solution_feasible;
          exact_respects_lower_bound;
        ] );
    ]
