module Config = Insp_workload.Config
module Instance = Insp_workload.Instance
module Graph = Insp_tree.Graph
module Solve = Insp_heuristics.Solve
module Exact = Insp_lp.Exact
module Cost = Insp_mapping.Cost
module Runtime = Insp_sim.Runtime
module Table = Insp_util.Table
module Obs = Insp_obs.Obs

let heuristic_names = List.map (fun h -> h.Solve.name) Solve.all

(* One sweep cell: every heuristic on one seed of one configuration.
   This is the unit Par_sweep distributes across domains. *)
let solve_cell ?(instance_of = Instance.generate) config seed =
  Obs.span "sweep.seed" (fun () ->
      let inst = instance_of { config with Config.seed } in
      Solve.run_all ~seed inst.Instance.app inst.Instance.platform)

(* Regroup per-seed heuristic outcomes into one Figure cell per
   heuristic. *)
let group_cells ~seeds runs =
  List.map
    (fun name ->
      let costs =
        List.filter_map
          (fun per_seed ->
            match
              List.find_opt (fun (h, _) -> h.Solve.name = name) per_seed
            with
            | Some (_, Ok o) -> Some o.Solve.cost
            | Some (_, Error _) | None -> None)
          runs
      in
      (name, Figure.cell_of_costs ~attempts:(List.length seeds) costs))
    heuristic_names

let cells_for ?instance_of config ~seeds =
  group_cells ~seeds
    (Par_sweep.map (fun seed -> solve_cell ?instance_of config seed) seeds)

let sweep_n ~id ~title ~seeds ~ns ~config_of =
  (* Flatten the (n, seed) grid into one cell list so a parallel run
     keeps every worker busy across point boundaries; results come back
     in canonical grid order and are sliced per point. *)
  let runs =
    List.concat_map (fun n -> List.map (fun seed -> (n, seed)) seeds) ns
    |> Par_sweep.map (fun (n, seed) -> solve_cell (config_of n) seed)
    |> Array.of_list
  in
  let k = List.length seeds in
  let points =
    List.mapi
      (fun pi n ->
        {
          Figure.x = float_of_int n;
          cells =
            group_cells ~seeds (List.init k (fun si -> runs.((pi * k) + si)));
        })
      ns
  in
  {
    Figure.id;
    title;
    xlabel = "N";
    points;
    notes =
      [ Printf.sprintf "mean cost ($) over %d seeds; '-' = fewer than half \
                        the seeds feasible" (List.length seeds) ];
  }

let default_ns = [ 20; 40; 60; 80; 100; 120; 140 ]

let fig2a ?(seeds = Ablations.default_seeds) ?(ns = default_ns) () =
  sweep_n ~id:"fig2a"
    ~title:"cost vs N (alpha=0.9, high frequency, small objects)" ~seeds ~ns
    ~config_of:(fun n -> Config.make ~n_operators:n ~alpha:0.9 ())

let fig2b ?(seeds = Ablations.default_seeds) ?(ns = default_ns) () =
  sweep_n ~id:"fig2b"
    ~title:"cost vs N (alpha=1.7, high frequency, small objects)" ~seeds ~ns
    ~config_of:(fun n -> Config.make ~n_operators:n ~alpha:1.7 ())

let default_alphas =
  [ 0.5; 0.8; 1.1; 1.3; 1.5; 1.6; 1.7; 1.8; 1.9; 2.0; 2.2; 2.5 ]

let fig3 ?(seeds = Ablations.default_seeds) ?(alphas = default_alphas) ?(n = 60)
    () =
  let points =
    List.map
      (fun alpha ->
        {
          Figure.x = alpha;
          cells =
            cells_for (Config.make ~n_operators:n ~alpha ()) ~seeds;
        })
      alphas
  in
  {
    Figure.id = (if n = 60 then "fig3" else Printf.sprintf "fig3-n%d" n);
    title =
      Printf.sprintf
        "cost vs alpha (N=%d, high frequency, small objects)" n;
    xlabel = "alpha";
    points;
    notes =
      [
        "expected shape: flat, then rising past a first threshold, then \
         infeasible past a second";
      ];
  }

let large_objects ?(seeds = Ablations.default_seeds)
    ?(ns = [ 10; 20; 30; 40; 45; 50; 60 ]) () =
  sweep_n ~id:"large"
    ~title:"cost vs N (large objects 450-530 MB, alpha=0.9, rho=0.1)" ~seeds
    ~ns
    ~config_of:(fun n ->
      Config.make ~n_operators:n ~alpha:0.9 ~sizes:Config.Large ())

let low_frequency ?(seeds = Ablations.default_seeds) ?(ns = default_ns) () =
  sweep_n ~id:"lowfreq"
    ~title:"cost vs N (alpha=0.9, LOW frequency 1/50s, small objects)" ~seeds
    ~ns
    ~config_of:(fun n ->
      Config.make ~n_operators:n ~alpha:0.9 ~freq:Config.Low ())

let rate_sweep ?(seeds = Ablations.default_seeds)
    ?(periods = [ 2.0; 5.0; 10.0; 20.0; 50.0 ]) ?(n = 60) () =
  let base = Config.make ~n_operators:n ~alpha:0.9 () in
  let points =
    List.map
      (fun period ->
        let instance_of config =
          (* Same tree/sizes/servers per seed; only the frequency
             varies. *)
          Instance.with_frequency (Instance.generate config) (1.0 /. period)
        in
        { Figure.x = period; cells = cells_for ~instance_of base ~seeds })
      periods
  in
  {
    Figure.id = "rates";
    title =
      Printf.sprintf
        "cost vs download period (N=%d, alpha=0.9, small objects)" n;
    xlabel = "period (s)";
    points;
    notes =
      [
        "trees are held fixed per seed across periods; expected: cost \
         decreases with the period and stabilises beyond ~10 s";
      ];
  }

(* Homogeneous platform used for the exactness comparison: fastest CPU,
   1250 MB/s NIC. *)
let homogeneous_instance config =
  Instance.homogeneous (Instance.generate config) ~cpu_index:4 ~nic_index:3

let ilp_compare ?(seeds = Ablations.default_seeds)
    ?(ns = [ 5; 8; 11; 14; 17; 20 ]) () =
  let points =
    List.map
      (fun n ->
        let config = Config.make ~n_operators:n ~alpha:0.9 () in
        let heuristic_cells =
          cells_for ~instance_of:homogeneous_instance config ~seeds
        in
        let exact_runs =
          Par_sweep.map
            (fun seed ->
              let inst = homogeneous_instance { config with Config.seed } in
              let catalog =
                inst.Instance.platform.Insp_platform.Platform.catalog
              in
              let g = Graph.of_app inst.Instance.app in
              let bound = Cost.lower_bound_cost g catalog in
              let exact =
                match
                  Exact.solve ~node_limit:400_000 g inst.Instance.platform
                with
                | Ok r -> Some r.Exact.cost
                | Error _ -> None
              in
              (bound, exact))
            seeds
        in
        (* Reversed like the sequential accumulator builds them, so the
           per-cell float folds are unchanged. *)
        let bound_costs = ref (List.rev_map fst exact_runs) in
        let exact_costs = ref (List.rev (List.filter_map snd exact_runs)) in
        let attempts = List.length seeds in
        {
          Figure.x = float_of_int n;
          cells =
            heuristic_cells
            @ [
                ("Exact", Figure.cell_of_costs ~attempts !exact_costs);
                ("Bound", Figure.cell_of_costs ~attempts !bound_costs);
              ];
        })
      ns
  in
  {
    Figure.id = "ilp";
    title =
      "heuristics vs exact optimum (homogeneous platform: fastest CPU, \
       1250 MB/s NIC)";
    xlabel = "N";
    points;
    notes =
      [
        "'Exact' = branch-and-bound optimum (CPLEX substitute); 'Bound' = \
         quick lower bound";
      ];
  }

let rewrite ?(seeds = Ablations.default_seeds) ?(ns = [ 8; 12; 16; 20 ])
    ?(alpha = 1.4) () =
  let module Rewrite = Insp_rewrite.Rewrite in
  let module App = Insp_tree.App in
  let module Prng = Insp_util.Prng in
  let sbu = List.find (fun h -> h.Solve.key = "sbu") Solve.all in
  let points =
    List.map
      (fun n ->
        let run_shapes seed =
          let config = Config.make ~n_operators:n ~alpha ~seed () in
          let inst = Instance.generate config in
          let base_app = inst.Instance.app in
          let platform = inst.Instance.platform in
          let evaluate tree =
            let app =
              App.make ~rho:config.Config.rho
                ~base_work:config.Config.base_work
                ~work_factor:config.Config.work_factor ~tree
                ~objects:(App.objects base_app) ~alpha ()
            in
            match Solve.run ~seed sbu app platform with
            | Ok o -> Some o.Solve.cost
            | Error _ -> None
          in
          let original = App.tree base_app in
          let optimized, opt_cost =
            Rewrite.optimize (Prng.create seed) ~evaluate original
          in
          ignore optimized;
          [
            ("Left-deep", evaluate (Rewrite.left_deep_of original));
            ("Original", evaluate original);
            ("Balanced", evaluate (Rewrite.balanced_of original));
            ("Hill-climbed", opt_cost);
          ]
        in
        let per_seed = Par_sweep.map run_shapes seeds in
        let attempts = List.length seeds in
        let cell name =
          let costs =
            List.filter_map (fun run -> Option.join (List.assoc_opt name run))
              per_seed
          in
          (name, Figure.cell_of_costs ~attempts costs)
        in
        {
          Figure.x = float_of_int n;
          cells =
            [ cell "Left-deep"; cell "Original"; cell "Balanced";
              cell "Hill-climbed" ];
        })
      ns
  in
  {
    Figure.id = "rewrite";
    title =
      Printf.sprintf
        "mutable applications: provisioning cost by tree shape (alpha=%.1f, \
         same leaf multiset, SBU)" alpha;
    xlabel = "N";
    points;
    notes =
      [
        "extension of the paper's future work (§6): associative/commutative \
         operator rearrangement";
      ];
  }

let sharing ?(seeds = Ablations.default_seeds)
    ?(n_apps_list = [ 1; 2; 3; 4; 5 ]) ?(n = 30) () =
  let module MW = Insp_multi.Multi_workload in
  let module Dag = Insp_multi.Dag in
  let module Cse = Insp_multi.Cse in
  let module DP = Insp_multi.Dag_place in
  let points =
    List.map
      (fun n_apps ->
        let run build seed =
          let apps, platform = MW.instance ~seed ~n_apps ~n_operators:n in
          match DP.run (build apps) platform with
          | Ok o -> Some o.DP.cost
          | Error _ -> None
        in
        let collect build =
          List.filter_map Fun.id (Par_sweep.map (run build) seeds)
        in
        let attempts = List.length seeds in
        {
          Figure.x = float_of_int n_apps;
          cells =
            [
              ( "No sharing",
                Figure.cell_of_costs ~attempts (collect Dag.of_apps) );
              ( "CSE sharing",
                Figure.cell_of_costs ~attempts (collect Cse.share_apps) );
            ];
        })
      n_apps_list
  in
  {
    Figure.id = "sharing";
    title =
      Printf.sprintf
        "multi-application allocation: independent trees vs shared \
         sub-expressions (N=%d per application)" n;
    xlabel = "applications";
    points;
    notes =
      [
        "extension of the paper's future work (§6); correlated queries \
         share sub-expression pools";
      ];
  }

let sim_validation ?(seeds = [ 1; 2; 3 ]) ?(ns = [ 20; 60 ]) () =
  let sbu = List.find (fun h -> h.Solve.key = "sbu") Solve.all in
  let table =
    Table.create ~title:"[simcheck] discrete-event validation of SBU mappings"
      [
        ("N", Table.Right);
        ("seed", Table.Right);
        ("procs", Table.Right);
        ("target rho", Table.Right);
        ("achieved", Table.Right);
        ("sustains", Table.Left);
      ]
  in
  let rows =
    List.concat_map (fun n -> List.map (fun seed -> (n, seed)) seeds) ns
    |> Par_sweep.map (fun (n, seed) ->
           let config = Config.make ~n_operators:n ~alpha:0.9 ~seed () in
           let inst = Instance.generate config in
           match
             Solve.run ~seed sbu inst.Instance.app inst.Instance.platform
           with
           | Error _ ->
             [ string_of_int n; string_of_int seed; "-"; "-"; "-"; "infeasible" ]
           | Ok o ->
             (* Horizon long enough to dominate the pipeline-fill
                transient of deep mappings. *)
             let r =
               Runtime.run ~horizon:240.0 inst.Instance.app
                 inst.Instance.platform o.Solve.alloc
             in
             [
               string_of_int n;
               string_of_int seed;
               string_of_int o.Solve.n_procs;
               Printf.sprintf "%.2f" r.Runtime.target_throughput;
               Printf.sprintf "%.3f" r.Runtime.achieved_throughput;
               (if Runtime.sustains_target r then "yes" else "NO");
             ])
  in
  List.iter (Table.add_row table) rows;
  Table.render table

let serve_tenancy ?(seeds = [ 1; 2; 3 ]) ?(n_apps = 1000) () =
  let module Serve = Insp_serve.Serve in
  let module Stream = Insp_serve.Stream in
  (* Budget and card scale chosen so both shared resources bind on the
     default stream: the processor budget and (scaled) server cards each
     cause a visible share of the rejections. *)
  let variants =
    [
      ("static", Serve.Static_slicing, false);
      ("shared", Serve.Shared, false);
      ("shared+reopt", Serve.Shared, true);
    ]
  in
  let grid =
    List.concat_map
      (fun v -> List.map (fun seed -> (v, seed)) seeds)
      variants
  in
  let totals =
    Par_sweep.map
      (fun ((_, tenancy, reoptimize), seed) ->
        let spec = Stream.make ~n_apps ~seed () in
        let params =
          Serve.make_params
            ~base:(Config.make ~n_operators:60 ~seed ())
            ~tenancy ~proc_budget:128 ~card_scale:0.08 ~reoptimize ()
        in
        Serve.totals (Serve.run params (Stream.events spec)))
      grid
  in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "[serve] online multi-tenant service: %d-application streams, \
            mean over seeds {%s}"
           n_apps
           (String.concat "," (List.map string_of_int seeds)))
      [
        ("model", Table.Left);
        ("admitted", Table.Right);
        ("rejected", Table.Right);
        ("reject %", Table.Right);
        ("net cost ($)", Table.Right);
      ]
  in
  List.iter
    (fun (label, _, _) ->
      let mine =
        List.filter_map
          (fun (((l, _, _), _), tot) ->
            if l = label then Some tot else None)
          (List.combine grid totals)
      in
      let k = float_of_int (List.length mine) in
      let meanf f = List.fold_left (fun a s -> a +. f s) 0.0 mine /. k in
      Table.add_row table
        [
          label;
          Printf.sprintf "%.1f"
            (meanf (fun s -> float_of_int s.Insp_serve.Serve.admitted));
          Printf.sprintf "%.1f"
            (meanf (fun s -> float_of_int s.Insp_serve.Serve.rejected));
          Printf.sprintf "%.1f"
            (meanf (fun s -> 100.0 *. Serve.rejection_rate s));
          Printf.sprintf "%.0f" (meanf (fun s -> s.Insp_serve.Serve.net_cost));
        ])
    variants;
  Table.render table

let faults_resilience ?(seeds = [ 1; 2; 3 ]) ?(n = 40) ?(n_events = 10) () =
  let module Scenario = Insp_faults.Scenario in
  let module Engine = Insp_faults.Engine in
  let module Redundancy = Insp_faults.Redundancy in
  let runs =
    Par_sweep.map
      (fun seed ->
        let config = Config.make ~n_operators:n ~alpha:0.9 ~seed () in
        let inst = Instance.generate config in
        let g = Graph.of_app inst.Instance.app in
        match Solve.run_graph ~seed Solve.sbu g inst.Instance.platform with
        | Error _ -> (seed, None)
        | Ok o ->
          let timeline =
            Scenario.generate (Scenario.make ~seed ~n_events ~mean_burst:2 ())
          in
          let report =
            Engine.run (Engine.make_spec ()) g inst.Instance.platform
              o.Solve.alloc timeline
          in
          let frontier =
            Redundancy.frontier ~k_max:2 g inst.Instance.platform
              o.Solve.alloc
          in
          (seed, Some (o, report, frontier)))
      seeds
  in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "[faults] crash/repair resilience of SBU mappings, N=%d, \
            %d-event timelines"
           n n_events)
      [
        ("seed", Table.Right);
        ("procs", Table.Right);
        ("episodes", Table.Right);
        ("crashes", Table.Right);
        ("downtime (s)", Table.Right);
        ("realloc ($)", Table.Right);
        ("worst dip", Table.Right);
        ("status", Table.Left);
      ]
  in
  List.iter
    (fun (seed, cell) ->
      match cell with
      | None ->
        Table.add_row table
          [ string_of_int seed; "-"; "-"; "-"; "-"; "-"; "-"; "infeasible" ]
      | Some (o, r, _) ->
        Table.add_row table
          [
            string_of_int seed;
            string_of_int o.Solve.n_procs;
            string_of_int (List.length r.Engine.episodes);
            string_of_int r.Engine.n_crashes;
            Printf.sprintf "%.1f" r.Engine.total_downtime;
            Printf.sprintf "%.0f" r.Engine.total_realloc_cost;
            (match r.Engine.worst_dip with
            | Some d -> Printf.sprintf "%.0f%%" (100.0 *. d)
            | None -> "-");
            (match r.Engine.infeasible_at with
            | Some t -> Printf.sprintf "infeasible@%.0f" t
            | None -> "ok");
          ])
    runs;
  (* Cost-of-resilience frontier: platform cost after hardening against
     any K simultaneous crashes with migration-only repair. *)
  let points =
    List.map
      (fun k ->
        let costs =
          List.filter_map
            (fun (_, cell) ->
              match cell with
              | None -> None
              | Some (_, _, frontier) -> (
                match List.find_opt (fun (k', _) -> k' = k) frontier with
                | Some (_, Ok h) -> Some h.Redundancy.cost
                | Some (_, Error _) | None -> None))
            runs
        in
        {
          Figure.x = float_of_int k;
          cells =
            [ ("SBU+spares", Figure.cell_of_costs ~attempts:(List.length seeds) costs) ];
        })
      [ 0; 1; 2 ]
  in
  let fig =
    {
      Figure.id = "faults-k";
      title =
        Printf.sprintf
          "cost of K-failure resilience (migration-only repair), N=%d" n;
      xlabel = "K";
      points;
      notes =
        [
          "spares are bought at the top configuration, then downgraded to \
           the cheapest preserving K-resilience";
        ];
    }
  in
  Table.render table ^ "\n" ^ Figure.render fig

let all_ids =
  [ "fig2a"; "fig2b"; "fig3"; "fig3-n20"; "large"; "lowfreq"; "rates";
    "ilp"; "sharing"; "rewrite"; "replication"; "serve"; "simcheck";
    "faults" ]

let run_by_id ?(quick = false) ?(seed = 1) ?(jobs = 1) id =
  let seeds = List.init (if quick then 2 else 5) (fun i -> seed + i) in
  let ns = if quick then [ 20; 60 ] else default_ns in
  Par_sweep.with_jobs jobs @@ fun () ->
  Obs.span ("experiment." ^ id) @@ fun () ->
  match id with
  | "fig2a" -> Some (Figure.render (fig2a ~seeds ~ns ()))
  | "fig2b" -> Some (Figure.render (fig2b ~seeds ~ns ()))
  | "fig3" ->
    let alphas = if quick then [ 0.9; 1.7; 2.0 ] else default_alphas in
    Some (Figure.render (fig3 ~seeds ~alphas ()))
  | "fig3-n20" ->
    let alphas = if quick then [ 0.9; 1.9; 2.3 ] else default_alphas in
    Some (Figure.render (fig3 ~seeds ~alphas ~n:20 ()))
  | "large" ->
    let ns = if quick then [ 20; 45; 60 ] else [ 10; 20; 30; 40; 45; 50; 60 ] in
    Some (Figure.render (large_objects ~seeds ~ns ()))
  | "lowfreq" -> Some (Figure.render (low_frequency ~seeds ~ns ()))
  | "rates" ->
    let periods = if quick then [ 2.0; 50.0 ] else [ 2.0; 5.0; 10.0; 20.0; 50.0 ] in
    Some (Figure.render (rate_sweep ~seeds ~periods ()))
  | "ilp" ->
    let ns = if quick then [ 5; 8 ] else [ 5; 8; 11; 14; 17; 20 ] in
    Some (Figure.render (ilp_compare ~seeds ~ns ()))
  | "rewrite" ->
    let ns = if quick then [ 8; 12 ] else [ 8; 12; 16; 20 ] in
    Some (Figure.render (rewrite ~seeds ~ns ()))
  | "sharing" ->
    let n_apps_list = if quick then [ 1; 3 ] else [ 1; 2; 3; 4; 5 ] in
    Some (Figure.render (sharing ~seeds ~n_apps_list ()))
  | "replication" ->
    let copy_ranges =
      if quick then [ (1, 1); (3, 3) ]
      else [ (1, 1); (1, 2); (2, 2); (3, 3); (4, 4) ]
    in
    Some (Figure.render (Ablations.replication ~seeds ~copy_ranges ()))
  | "serve" ->
    let n_apps = if quick then 120 else 1000 in
    let seeds = List.init (if quick then 1 else 3) (fun i -> seed + i) in
    Some (serve_tenancy ~seeds ~n_apps ())
  | "simcheck" ->
    let ns = if quick then [ 20 ] else [ 20; 60 ] in
    let seeds = List.init (if quick then 1 else 3) (fun i -> seed + i) in
    Some (sim_validation ~seeds ~ns ())
  | "faults" ->
    let n = if quick then 20 else 40 in
    let n_events = if quick then 6 else 10 in
    let seeds = List.init (if quick then 1 else 3) (fun i -> seed + i) in
    Some (faults_resilience ~seeds ~n ~n_events ())
  | _ -> None
