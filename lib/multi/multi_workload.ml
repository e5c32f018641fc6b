module Prng = Insp_util.Prng
module Optree = Insp_tree.Optree
module App = Insp_tree.App
module Objects = Insp_tree.Objects
module Generate = Insp_tree.Generate
module Config = Insp_workload.Config
module Platform = Insp_platform.Platform

(* A random sub-expression spec with exactly [n] operators. *)
let rec random_spec rng ~n ~n_object_types =
  let leaf () = Optree.Obj (Prng.int rng n_object_types) in
  if n = 0 then leaf ()
  else begin
    let left = Prng.int rng n in
    let right = n - 1 - left in
    Optree.Op
      ( random_spec rng ~n:left ~n_object_types,
        random_spec rng ~n:right ~n_object_types )
  end

let spec_operators spec =
  let rec count = function
    | Optree.Obj _ -> 0
    | Optree.Op1 a -> 1 + count a
    | Optree.Op (a, b) -> 1 + count a + count b
  in
  count spec

(* The shared pool: [n_pool] random sub-expressions of [pool_operators]
   operators each, grafted with probability [share_prob] wherever a tree
   needs a subtree of exactly that size. *)
let n_pool = 4
let pool_operators = 3
let share_prob = 0.5

let correlated_trees rng ~n_apps ~n_operators ~n_object_types =
  if n_apps < 1 then invalid_arg "Multi_workload.correlated_trees: n_apps >= 1";
  if pool_operators >= max 2 n_operators then
    invalid_arg "Multi_workload.correlated_trees: bad pool_operators";
  let pool =
    Array.init n_pool (fun _ ->
        random_spec rng ~n:pool_operators ~n_object_types)
  in
  (* Build one tree of exactly [n_operators] operators; leaves may be
     grafts from the pool (consuming pool_operators of the budget). *)
  let rec build n =
    if n = 0 then Optree.Obj (Prng.int rng n_object_types)
    else if n = pool_operators && Prng.float rng < share_prob then
      Prng.choose rng pool
    else begin
      let left = Prng.int rng n in
      Optree.Op (build left, build (n - 1 - left))
    end
  in
  List.init n_apps (fun _ ->
      let spec = build n_operators in
      assert (spec_operators spec = n_operators);
      Optree.of_spec ~n_object_types spec)

let correlated_apps rng ~config ~n_apps =
  let trees =
    correlated_trees rng ~n_apps
      ~n_operators:config.Config.n_operators
      ~n_object_types:config.Config.n_object_types
  in
  let lo, hi = Config.size_range config.Config.sizes in
  let sizes =
    Generate.random_sizes rng ~n_object_types:config.Config.n_object_types ~lo
      ~hi
  in
  let objects =
    Objects.uniform_freq ~sizes ~freq:(Config.frequency config.Config.freq)
  in
  List.map
    (fun tree ->
      App.make ~rho:config.Config.rho ~base_work:config.Config.base_work
        ~work_factor:config.Config.work_factor ~tree ~objects
        ~alpha:config.Config.alpha ())
    trees

let instance ~seed ~n_apps ~n_operators =
  let master = Prng.create seed in
  let app_rng = Prng.split master in
  let server_rng = Prng.split master in
  let config = Config.make ~n_operators ~seed () in
  let apps = correlated_apps app_rng ~config ~n_apps in
  let platform =
    Platform.paper_default server_rng
      ~n_object_types:config.Config.n_object_types ()
  in
  (apps, platform)
