(* End-to-end integration tests: the full pipeline across regimes, the
   library facade, and cross-layer consistency (heuristics vs checker vs
   exact solver vs simulator). *)

module Config = Insp.Config
module Instance = Insp.Instance
module Solve = Insp.Solve
module Check = Insp.Check
module Alloc = Insp.Alloc
module Runtime = Insp.Runtime
module Exact = Insp.Exact
module Suite = Insp.Suite

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* One full pass: generate -> solve (all heuristics) -> validate -> pick
   best -> simulate. *)
let full_pipeline config =
  let inst = Instance.generate config in
  let app = inst.Instance.app in
  let platform = inst.Instance.platform in
  let results = Solve.run_all ~seed:config.Config.seed app platform in
  List.iter
    (fun ((h : Solve.heuristic), r) ->
      match r with
      | Ok o ->
        Alcotest.(check string)
          (h.name ^ " passes checker")
          "feasible"
          (Check.explain (Check.check app platform o.Solve.alloc))
      | Error _ -> ())
    results;
  match Insp.solve ~seed:config.Config.seed inst with
  | Error _ -> ()
  | Ok best ->
    (* Long horizon: the measurement must dominate the pipeline-fill
       transient (see Runtime.run's window documentation). *)
    let report = Insp.simulate ~horizon:240.0 inst best.Solve.alloc in
    Alcotest.(check bool) "best mapping sustains rho" true
      (Runtime.sustains_target report)

let test_pipeline_small_high () =
  full_pipeline (Config.make ~n_operators:30 ~alpha:0.9 ~seed:2 ())

let test_pipeline_small_low () =
  full_pipeline
    (Config.make ~n_operators:30 ~alpha:0.9 ~freq:Config.Low ~seed:2 ())

let test_pipeline_high_alpha () =
  full_pipeline (Config.make ~n_operators:25 ~alpha:1.6 ~seed:4 ())

let test_pipeline_large_objects () =
  full_pipeline
    (Config.make ~n_operators:20 ~alpha:0.9 ~sizes:Config.Large ~seed:6 ())

let test_large_objects_cliff () =
  (* Beyond the large-object feasibility cliff no heuristic may claim a
     feasible mapping that the checker rejects; most should simply
     fail. *)
  let config =
    Config.make ~n_operators:80 ~alpha:0.9 ~sizes:Config.Large ~seed:3 ()
  in
  let inst = Instance.generate config in
  List.iter
    (fun ((h : Solve.heuristic), r) ->
      match r with
      | Ok o ->
        Alcotest.(check string) (h.name ^ " claims feasible") "feasible"
          (Check.explain
             (Check.check inst.Instance.app inst.Instance.platform
                o.Solve.alloc))
      | Error _ -> ())
    (Solve.run_all ~seed:3 inst.Instance.app inst.Instance.platform)

let test_facade_solve_picks_cheapest () =
  let inst = Instance.generate (Config.make ~n_operators:25 ~seed:8 ()) in
  let all =
    Solve.run_all ~seed:8 inst.Instance.app inst.Instance.platform
    |> List.filter_map (fun (_, r) -> Result.to_option r)
  in
  match Insp.solve ~seed:8 inst with
  | Error _ -> Alcotest.fail "expected feasible"
  | Ok best ->
    List.iter
      (fun (o : Solve.outcome) ->
        Alcotest.(check bool) "facade <= each heuristic" true
          (best.Solve.cost <= o.cost +. 1e-6))
      all

let test_exact_consistency_homogeneous () =
  (* On a homogeneous platform: exact <= SBU and both validate. *)
  let inst =
    Instance.homogeneous
      (Instance.generate (Config.make ~n_operators:12 ~seed:5 ()))
      ~cpu_index:4 ~nic_index:3
  in
  let app = inst.Instance.app and platform = inst.Instance.platform in
  match Exact.solve (Insp.Graph.of_app app) platform with
  | Error e -> Alcotest.fail e
  | Ok exact -> (
    Alcotest.(check string) "exact validates" "feasible"
      (Check.explain (Check.check app platform exact.Exact.alloc));
    let sbu = List.find (fun h -> h.Solve.key = "sbu") Solve.all in
    match Solve.run ~seed:5 sbu app platform with
    | Error _ -> ()
    | Ok o ->
      Alcotest.(check bool) "exact <= SBU" true
        (exact.Exact.cost <= o.Solve.cost +. 1e-6))

let test_all_experiments_quick () =
  List.iter
    (fun id ->
      match Suite.run_by_id ~quick:true id with
      | Some s ->
        Alcotest.(check bool) (id ^ " output") true (String.length s > 100)
      | None -> Alcotest.fail ("missing experiment " ^ id))
    Suite.all_ids

let test_version () =
  Alcotest.(check bool) "semver-ish" true
    (String.length Insp.version >= 5 && String.contains Insp.version '.')

let test_paper_ranking_on_average () =
  (* The paper's headline ranking at N=60, alpha=0.9, averaged over a
     few seeds: SBU cheapest among the deterministic heuristics; Random
     most expensive overall. *)
  let seeds = [ 1; 2; 3 ] in
  let mean name =
    let costs =
      List.filter_map
        (fun seed ->
          let inst =
            Instance.generate (Config.make ~n_operators:60 ~alpha:0.9 ~seed ())
          in
          match
            Solve.run ~seed
              (Option.get (Solve.find name))
              inst.Instance.app inst.Instance.platform
          with
          | Ok o -> Some o.Solve.cost
          | Error _ -> None)
        seeds
    in
    Insp.Stats.mean costs
  in
  let sbu = mean "sbu" in
  Alcotest.(check bool) "SBU <= Comp-Greedy" true (sbu <= mean "comp" +. 1.0);
  Alcotest.(check bool) "SBU <= Comm-Greedy" true (sbu <= mean "comm");
  Alcotest.(check bool) "SBU <= Object-Grouping" true (sbu <= mean "objgroup");
  Alcotest.(check bool) "SBU <= Object-Availability" true
    (sbu <= mean "objavail");
  Alcotest.(check bool) "Random worst" true (mean "random" >= mean "objavail")

let test_simcheck_report () =
  match Suite.run_by_id ~quick:true ~seed:2 "simcheck" with
  | Some s -> Alcotest.(check bool) "rendered" true (contains s "achieved")
  | None -> Alcotest.fail "simcheck unknown"

let () =
  Alcotest.run "integration"
    [
      ( "pipeline",
        [
          Alcotest.test_case "small objects, high freq" `Quick
            test_pipeline_small_high;
          Alcotest.test_case "small objects, low freq" `Quick
            test_pipeline_small_low;
          Alcotest.test_case "high alpha" `Quick test_pipeline_high_alpha;
          Alcotest.test_case "large objects" `Quick test_pipeline_large_objects;
          Alcotest.test_case "large-object cliff" `Quick
            test_large_objects_cliff;
        ] );
      ( "consistency",
        [
          Alcotest.test_case "facade picks cheapest" `Quick
            test_facade_solve_picks_cheapest;
          Alcotest.test_case "exact vs heuristics" `Quick
            test_exact_consistency_homogeneous;
          Alcotest.test_case "paper ranking (mean over seeds)" `Quick
            test_paper_ranking_on_average;
        ] );
      ( "harness",
        [
          Alcotest.test_case "all experiments quick" `Slow
            test_all_experiments_quick;
          Alcotest.test_case "simcheck report" `Quick test_simcheck_report;
          Alcotest.test_case "version" `Quick test_version;
        ] );
    ]
