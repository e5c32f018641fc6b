module Config = Insp_workload.Config
module Graph = Insp_tree.Graph
module Instance = Insp_workload.Instance
module Solve = Insp_heuristics.Solve
module Builder = Insp_heuristics.Builder
module Common = Insp_heuristics.Common
module H_comm_greedy = Insp_heuristics.H_comm_greedy
module Server_select = Insp_heuristics.Server_select
module Alloc = Insp_mapping.Alloc
module Check = Insp_mapping.Check
module Cost = Insp_mapping.Cost
module Platform = Insp_platform.Platform
module Table = Insp_util.Table
module Stats = Insp_util.Stats
module Prng = Insp_util.Prng

let default_seeds = [ 1; 2; 3; 4; 5 ]

let mean_and_successes runs =
  let ok = List.filter_map Fun.id runs in
  let mean =
    if ok = [] then "-" else Printf.sprintf "%.0f" (Stats.mean ok)
  in
  (mean, Printf.sprintf "%d/%d" (List.length ok) (List.length runs))

(* ------------------------------------------------------------------ *)
(* Replication level (paper §5 last paragraph)                         *)

let replication ?(seeds = default_seeds)
    ?(copy_ranges = [ (1, 1); (1, 2); (2, 2); (3, 3); (4, 4) ]) () =
  let points =
    List.map
      (fun (min_copies, max_copies) ->
        let config =
          Config.make ~n_operators:60 ~alpha:0.9 ~min_copies ~max_copies ()
        in
        let runs =
          List.map
            (fun seed ->
              let inst = Instance.generate { config with Config.seed } in
              Solve.run_all ~seed inst.Instance.app inst.Instance.platform)
            seeds
        in
        let cells =
          List.map
            (fun h ->
              let costs =
                List.filter_map
                  (fun per_seed ->
                    match List.assq_opt h per_seed with
                    | Some (Ok o) -> Some o.Solve.cost
                    | Some (Error _) | None -> None)
                  runs
              in
              ( h.Solve.name,
                Figure.cell_of_costs ~attempts:(List.length seeds) costs ))
            Solve.all
        in
        {
          Figure.x = float_of_int (min_copies + max_copies) /. 2.0;
          cells;
        })
      copy_ranges
  in
  {
    Figure.id = "replication";
    title =
      "influence of basic-object replication (N=60, alpha=0.9; x = mean \
       copies per object)";
    xlabel = "copies";
    points;
    notes =
      [ "paper \u{00a7}5: the replication level has little or no effect in \
         general" ];
  }

(* ------------------------------------------------------------------ *)
(* Iterative grouping fallback                                         *)

let grouping_rounds ?(seeds = default_seeds) ?(ns = [ 60; 100; 140 ]) () =
  let table =
    Table.create
      ~title:
        "[ablation] iterative grouping fallback (SBU): 1 round (paper) vs 8"
      [
        ("N", Table.Right);
        ("feasible (1 round)", Table.Right);
        ("cost (1 round)", Table.Right);
        ("feasible (8 rounds)", Table.Right);
        ("cost (8 rounds)", Table.Right);
      ]
  in
  List.iter
    (fun n ->
      let run rounds seed =
        let inst =
          Instance.generate (Config.make ~n_operators:n ~alpha:0.9 ~seed ())
        in
        Common.with_collapse_rounds rounds (fun () ->
            match
              Solve.run ~seed Solve.sbu inst.Instance.app inst.Instance.platform
            with
            | Ok o -> Some o.Solve.cost
            | Error _ -> None)
      in
      let one = List.map (run 1) seeds in
      let eight = List.map (run 8) seeds in
      let m1, s1 = mean_and_successes one in
      let m8, s8 = mean_and_successes eight in
      Table.add_row table [ string_of_int n; s1; m1; s8; m8 ])
    ns;
  Table.render table

(* ------------------------------------------------------------------ *)
(* Comm-Greedy merge sweeps                                            *)

let merge_sweeps ?(seeds = default_seeds)
    ?(cases = [ (20, Config.Small); (60, Config.Small); (30, Config.Large) ])
    () =
  let table =
    Table.create
      ~title:"[ablation] Comm-Greedy case-(iii) merge sweeps: off vs on"
      [
        ("N", Table.Right);
        ("sizes", Table.Left);
        ("cost (no sweeps)", Table.Right);
        ("cost (sweeps)", Table.Right);
        ("saving", Table.Right);
      ]
  in
  let comm = List.find (fun h -> h.Solve.key = "comm") Solve.all in
  List.iter
    (fun (n, sizes) ->
      let size_name = Config.size_name sizes in
      let run enabled seed =
        let inst =
          Instance.generate
            (Config.make ~n_operators:n ~alpha:0.9 ~sizes ~seed ())
        in
        H_comm_greedy.with_merge_sweeps enabled (fun () ->
            match Solve.run ~seed comm inst.Instance.app inst.Instance.platform with
            | Ok o -> Some o.Solve.cost
            | Error _ -> None)
      in
      let off = List.filter_map (run false) seeds in
      let on = List.filter_map (run true) seeds in
      match (off, on) with
      | [], _ | _, [] ->
        Table.add_row table [ string_of_int n; size_name; "-"; "-"; "-" ]
      | _ ->
        let m_off = Stats.mean off and m_on = Stats.mean on in
        Table.add_row table
          [
            string_of_int n;
            size_name;
            Printf.sprintf "%.0f" m_off;
            Printf.sprintf "%.0f" m_on;
            Printf.sprintf "%.1f%%" (100.0 *. (m_off -. m_on) /. m_off);
          ])
    cases;
  Table.render table

(* ------------------------------------------------------------------ *)
(* Downgrade step                                                      *)

(* Re-run the pipeline without the downgrade and compare. *)
let solve_without_downgrade h seed app platform =
  let rng = Prng.create seed in
  match h.Solve.run rng app platform with
  | Error _ -> None
  | Ok builder -> (
    match Builder.finalize builder with
    | Error _ -> None
    | Ok (groups, configs) -> (
      let selection =
        if h.Solve.randomized then Server_select.random rng app platform ~groups
        else Server_select.sophisticated app platform ~groups
      in
      match selection with
      | Error _ -> None
      | Ok downloads -> (
        let alloc = Alloc.of_groups ~configs ~groups ~downloads in
        match Check.check app platform alloc with
        | [] -> Some (Cost.of_alloc platform.Platform.catalog alloc)
        | _ -> None)))

let downgrade_step ?(seeds = default_seeds) ?(ns = [ 60 ]) () =
  let table =
    Table.create
      ~title:
        "[ablation] the downgrade step (N=60, alpha=0.9): provisioned vs \
         downgraded cost"
      [
        ("heuristic", Table.Left);
        ("no downgrade", Table.Right);
        ("with downgrade", Table.Right);
        ("saving", Table.Right);
      ]
  in
  List.iter
    (fun n ->
      List.iter
        (fun h ->
          let raw =
            List.filter_map
              (fun seed ->
                let inst =
                  Instance.generate
                    (Config.make ~n_operators:n ~alpha:0.9 ~seed ())
                in
                solve_without_downgrade h seed inst.Instance.app
                  inst.Instance.platform)
              seeds
          in
          let down =
            List.filter_map
              (fun seed ->
                let inst =
                  Instance.generate
                    (Config.make ~n_operators:n ~alpha:0.9 ~seed ())
                in
                match
                  Solve.run ~seed h inst.Instance.app inst.Instance.platform
                with
                | Ok o -> Some o.Solve.cost
                | Error _ -> None)
              seeds
          in
          match (raw, down) with
          | [], _ | _, [] ->
            Table.add_row table [ h.Solve.name; "-"; "-"; "-" ]
          | _ ->
            let m_raw = Stats.mean raw and m_down = Stats.mean down in
            Table.add_row table
              [
                h.Solve.name;
                Printf.sprintf "%.0f" m_raw;
                Printf.sprintf "%.0f" m_down;
                Printf.sprintf "%.1f%%" (100.0 *. (m_raw -. m_down) /. m_raw);
              ])
        Solve.all)
    ns;
  Table.render table

(* ------------------------------------------------------------------ *)
(* Server selection                                                    *)

(* Failing stages, "placement/selection/validation". *)
let stage_counts runs =
  let count p = List.length (List.filter p runs) in
  Printf.sprintf "%d/%d/%d"
    (count (function Error (Solve.Placement _) -> true | _ -> false))
    (count (function Error (Solve.Server_selection _) -> true | _ -> false))
    (count (function Error (Solve.Validation _) -> true | _ -> false))

(* One row per case: operators, object sizes, servers, seeds. *)
let server_selection cases =
  let table =
    Table.create
      ~title:
        "[ablation] server selection under SBU placement: random vs \
         three-loop (fails: placement/selection/validation)"
      (("N", Table.Right) :: ("sizes", Table.Left)
      :: List.map
           (fun h -> (h, Table.Right))
           [ "servers"; "random ok"; "random cost"; "random fails"; "3-loop ok";
             "3-loop cost"; "3-loop fails"; "only random ok"; "only 3-loop ok" ])
  in
  (* SBU placement, then the pipeline's tail under the given selection;
     random selection draws from its own PRNG. *)
  let variant selection seed inst =
    let g = Graph.of_app inst.Instance.app in
    let platform = inst.Instance.platform in
    match Solve.sbu.Solve.place (Prng.create seed) g platform with
    | Error msg -> Error (Solve.Placement msg)
    | Ok builder ->
      Solve.finish ~key:Solve.sbu.Solve.key selection (Prng.create 99) g
        platform builder
  in
  let cost = function Ok o -> Some o.Solve.cost | Error _ -> None in
  List.iter
    (fun (n, sizes, n_servers, seeds) ->
      let size_name = Config.size_name sizes in
      let config = Config.make ~n_operators:n ~alpha:0.9 ~sizes ~n_servers () in
      let runs selection =
        List.map
          (fun seed ->
            let inst = Instance.generate { config with Config.seed } in
            variant selection seed inst)
          seeds
      in
      let rnd = runs Solve.Random_servers in
      let soph = runs Solve.Three_loop in
      let m_r, s_r = mean_and_successes (List.map cost rnd) in
      let m_s, s_s = mean_and_successes (List.map cost soph) in
      let only ok other =
        List.fold_left2
          (fun n a b -> if Result.is_ok a && Result.is_error b then n + 1 else n)
          0 ok other
      in
      Table.add_row table
        [
          string_of_int n; size_name; string_of_int n_servers;
          s_r; m_r; stage_counts rnd; s_s; m_s; stage_counts soph;
          string_of_int (only rnd soph); string_of_int (only soph rnd);
        ])
    cases;
  Table.render table

(* ------------------------------------------------------------------ *)

let all =
  [
    ( "ablation-grouping",
      fun ~quick ->
        let seeds = if quick then [ 1; 2 ] else default_seeds in
        let ns = if quick then [ 60 ] else [ 60; 100; 140 ] in
        grouping_rounds ~seeds ~ns () );
    ( "ablation-sweeps",
      fun ~quick ->
        let seeds = if quick then [ 1; 2 ] else default_seeds in
        let cases =
          if quick then [ (30, Config.Large) ]
          else [ (20, Config.Small); (60, Config.Small); (30, Config.Large) ]
        in
        merge_sweeps ~seeds ~cases () );
    ( "ablation-downgrade",
      fun ~quick ->
        let seeds = if quick then [ 1; 2 ] else default_seeds in
        downgrade_step ~seeds () );
    ( "ablation-selection",
      fun ~quick ->
        let seeds = if quick then [ 1; 2 ] else default_seeds in
        (* The paper's six servers rarely contend; two servers holding
           large objects make the server cards bind, where the rules
           differ (seeds 1-40, 1-10 quick). *)
        let contended = List.init (if quick then 10 else 40) succ in
        server_selection
          [
            (60, Config.Small, 6, seeds);
            (40, Config.Large, 6, seeds);
            (20, Config.Large, 2, contended);
            (40, Config.Large, 2, contended);
          ] );
  ]
