(** In-Network Stream Processing — resource allocation toolkit.

    Umbrella module re-exporting the whole library.  A reproduction of
    Benoit, Casanova, Rehn-Sonigo & Robert, "Resource Allocation
    Strategies for Constructive In-Network Stream Processing"
    (APDCM/IPDPS 2009).

    Typical use:

    {[
      let config = Insp.Config.make ~n_operators:60 ~alpha:0.9 () in
      let inst = Insp.Instance.generate config in
      match Insp.solve inst with
      | Ok outcome -> Format.printf "cost $%.0f@." outcome.Insp.Solve.cost
      | Error f -> prerr_endline (Insp.Solve.failure_message f)
    ]} *)

let version = "1.0.0"

(* Utilities *)
module Prng = Insp_util.Prng
module Stats = Insp_util.Stats
module Table = Insp_util.Table
module Csv = Insp_util.Csv
module Heap = Insp_util.Heap
module Arena = Insp_util.Arena

(* Application model *)
module Objects = Insp_tree.Objects
module Optree = Insp_tree.Optree
module App = Insp_tree.App
module Graph = Insp_tree.Graph
module Generate = Insp_tree.Generate
module Tree_metrics = Insp_tree.Metrics
module Dot = Insp_tree.Dot

(* Platform model *)
module Catalog = Insp_platform.Catalog
module Servers = Insp_platform.Servers
module Platform = Insp_platform.Platform

(* Mapping model *)
module Alloc = Insp_mapping.Alloc
module Demand = Insp_mapping.Demand
module Check = Insp_mapping.Check
module Ledger = Insp_mapping.Ledger
module Cost = Insp_mapping.Cost

(* Heuristics *)
module Builder = Insp_heuristics.Builder
module Solve = Insp_heuristics.Solve
module Server_select = Insp_heuristics.Server_select
module Downgrade = Insp_heuristics.Downgrade

(* Exact solvers / LP substrate *)
module Simplex = Insp_lp.Simplex
module Milp = Insp_lp.Milp
module Ilp_model = Insp_lp.Ilp_model
module Exact = Insp_lp.Exact

(* Simulation *)
module Fair_share_inc = Insp_sim.Fair_share_inc
module Runtime = Insp_sim.Runtime

(* Observability *)
module Obs = Insp_obs.Obs
module Obs_metrics = Insp_obs.Metrics
module Obs_export = Insp_obs.Export
module Obs_journal = Insp_obs.Journal
module Obs_jsonc = Insp_obs.Jsonc
module Obs_prof = Insp_obs.Prof

(* Multi-application extension (paper §6 future work) *)
module Dag = Insp_multi.Dag
module Cse = Insp_multi.Cse
module Dag_check = Insp_multi.Dag_check
module Dag_place = Insp_multi.Dag_place
module Multi_workload = Insp_multi.Multi_workload

(* Mutable-application extension (paper §6 future work) *)
module Rewrite = Insp_rewrite.Rewrite

(* Online multi-tenant allocation service *)
module Serve = Insp_serve.Serve
module Serve_stream = Insp_serve.Stream

(* Fault injection, repair and redundancy *)
module Fault_scenario = Insp_faults.Scenario
module Fault_repair = Insp_faults.Repair
module Fault_engine = Insp_faults.Engine
module Redundancy = Insp_faults.Redundancy

(* Workloads and experiments *)
module Config = Insp_workload.Config
module Instance = Insp_workload.Instance
module Figure = Insp_experiments.Figure
module Suite = Insp_experiments.Suite
module Par_sweep = Insp_experiments.Par_sweep

(** Solve an instance with the paper's best heuristic
    (Subtree-bottom-up), falling back to every other heuristic in the
    paper's recommended order and returning the cheapest feasible
    outcome. *)
let solve ?(seed = 0) (inst : Instance.t) =
  let results =
    Solve.run_all ~seed inst.Instance.app inst.Instance.platform
  in
  let feasible =
    List.filter_map
      (fun (_, r) -> match r with Ok o -> Some o | Error _ -> None)
      results
  in
  match feasible with
  | [] -> (
    match results with
    | (_, Error f) :: _ -> Error f
    | _ -> assert false)
  | first :: rest ->
    Ok
      (List.fold_left
         (fun best o -> if o.Solve.cost < best.Solve.cost then o else best)
         first rest)

(** Validate then execute a mapping in the discrete-event runtime. *)
let simulate ?window ?horizon ?warmup (inst : Instance.t) alloc =
  Runtime.run ?window ?horizon ?warmup inst.Instance.app
    inst.Instance.platform alloc
