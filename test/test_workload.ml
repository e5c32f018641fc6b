(* Tests for workload configuration and instance generation (the paper's
   §5 methodology). *)

module Config = Insp.Config
module Instance = Insp.Instance
module App = Insp.App
module Objects = Insp.Objects
module Optree = Insp.Optree
module Servers = Insp.Servers
module Platform = Insp.Platform

let qtest = Helpers.qtest

let test_config_defaults () =
  let c = Config.default in
  Alcotest.(check int) "N" 60 c.Config.n_operators;
  Alcotest.(check int) "15 object types" 15 c.Config.n_object_types;
  Alcotest.(check int) "6 servers" 6 c.Config.n_servers;
  Helpers.alco_float "rho" 1.0 c.Config.rho;
  Helpers.alco_float "base work" 8000.0 c.Config.base_work;
  Helpers.alco_float "work factor" 0.19 c.Config.work_factor

let test_config_large_rho_rule () =
  let c = Config.make ~n_operators:10 ~sizes:Config.Large () in
  Helpers.alco_float "large implies rho 0.1" 0.1 c.Config.rho;
  let c = Config.make ~n_operators:10 ~sizes:Config.Large ~rho:2.0 () in
  Helpers.alco_float "explicit rho wins" 2.0 c.Config.rho;
  let c = Config.make ~n_operators:10 () in
  Helpers.alco_float "small implies rho 1" 1.0 c.Config.rho

let test_config_frequency () =
  Helpers.alco_float "high" 0.5 (Config.frequency Config.High);
  Helpers.alco_float "low" 0.02 (Config.frequency Config.Low);
  Helpers.alco_float "custom" 0.25 (Config.frequency (Config.Custom 0.25));
  Alcotest.check_raises "bad custom"
    (Invalid_argument "Config.frequency: non-positive frequency") (fun () ->
      ignore (Config.frequency (Config.Custom 0.0)))

let test_size_ranges () =
  Alcotest.(check (pair (float 0.0) (float 0.0))) "small" (5.0, 30.0)
    (Config.size_range Config.Small);
  Alcotest.(check (pair (float 0.0) (float 0.0))) "large" (450.0, 530.0)
    (Config.size_range Config.Large)

let instance_gen = QCheck.(pair (int_range 0 3000) (int_range 1 60))

let instance_matches_config =
  qtest "generated instance matches its configuration" instance_gen
    (fun (seed, n) ->
      let config = Config.make ~n_operators:n ~alpha:1.1 ~seed () in
      let inst = Instance.generate config in
      let app = inst.Instance.app in
      App.n_operators app = n
      && Helpers.float_eq (App.alpha app) 1.1
      && Helpers.float_eq (App.rho app) 1.0
      && Objects.count (App.objects app) = 15
      && Servers.n_servers inst.Instance.platform.Platform.servers = 6)

let instance_deterministic =
  qtest "same seed, same instance" instance_gen (fun (seed, n) ->
      let config = Config.make ~n_operators:n ~seed () in
      let a = Instance.generate config and b = Instance.generate config in
      let costs inst =
        List.map
          (fun (_, r) ->
            match r with
            | Ok (o : Insp.Solve.outcome) -> Some o.cost
            | Error _ -> None)
          (Insp.Solve.run_all ~seed inst.Instance.app inst.Instance.platform)
      in
      costs a = costs b)

let instance_sizes_follow_regime =
  qtest "object sizes follow the regime" instance_gen (fun (seed, n) ->
      let small =
        Instance.generate (Config.make ~n_operators:n ~seed ())
      in
      let large =
        Instance.generate
          (Config.make ~n_operators:n ~sizes:Config.Large ~seed ())
      in
      let ok inst lo hi =
        let objects = App.objects inst.Instance.app in
        List.for_all
          (fun k ->
            let s = Objects.size objects k in
            s >= lo && s < hi)
          (List.init (Objects.count objects) Fun.id)
      in
      ok small 5.0 30.0 && ok large 450.0 530.0)

let with_frequency_keeps_structure =
  qtest "with_frequency keeps the tree and sizes" instance_gen
    (fun (seed, n) ->
      let inst = Instance.generate (Config.make ~n_operators:n ~seed ()) in
      let inst' = Instance.with_frequency inst 0.1 in
      let t = App.tree inst.Instance.app and t' = App.tree inst'.Instance.app in
      Optree.preorder t = Optree.preorder t'
      && List.for_all2
           (fun i i' ->
             Optree.leaves t i = Optree.leaves t' i')
           (Optree.preorder t) (Optree.preorder t')
      && Helpers.float_eq
           (Objects.size (App.objects inst.Instance.app) 0)
           (Objects.size (App.objects inst'.Instance.app) 0)
      && Helpers.float_eq
           (Objects.rate (App.objects inst'.Instance.app) 0)
           (0.1 *. Objects.size (App.objects inst'.Instance.app) 0))

let test_generate_batch () =
  let batch =
    List.map
      (fun seed -> Instance.generate (Config.make ~n_operators:10 ~seed ()))
      [ 1; 2; 3 ]
  in
  Alcotest.(check int) "three instances" 3 (List.length batch);
  let seeds =
    List.map (fun i -> i.Instance.config.Config.seed) batch
  in
  Alcotest.(check (list int)) "seeds recorded" [ 1; 2; 3 ] seeds

let test_homogeneous_restriction () =
  let inst = Helpers.instance ~n:10 ~seed:1 () in
  let h = Instance.homogeneous inst ~cpu_index:2 ~nic_index:2 in
  Alcotest.(check bool) "homogeneous" true
    (Insp.Catalog.is_homogeneous h.Instance.platform.Platform.catalog);
  (* Tree untouched *)
  Alcotest.(check bool) "same app" true
    (App.n_operators inst.Instance.app = App.n_operators h.Instance.app)

let () =
  Alcotest.run "workload"
    [
      ( "config",
        [
          Alcotest.test_case "defaults" `Quick test_config_defaults;
          Alcotest.test_case "large rho rule" `Quick test_config_large_rho_rule;
          Alcotest.test_case "frequency" `Quick test_config_frequency;
          Alcotest.test_case "size ranges" `Quick test_size_ranges;
        ] );
      ( "instance",
        [
          Alcotest.test_case "batch" `Quick test_generate_batch;
          Alcotest.test_case "homogeneous restriction" `Quick
            test_homogeneous_restriction;
          instance_matches_config;
          instance_deterministic;
          instance_sizes_follow_regime;
          with_frequency_keeps_structure;
        ] );
    ]
