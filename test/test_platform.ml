(* Tests for the platform model: purchase catalog (paper Table 1), data
   servers and the assembled platform. *)

module Catalog = Insp.Catalog
module Servers = Insp.Servers
module Platform = Insp.Platform
module Prng = Insp.Prng

let qtest = Helpers.qtest

(* ------------------------------------------------------------------ *)
(* Catalog                                                             *)

let test_table1_constants () =
  let c = Catalog.dell_2008 in
  (* the cheapest configuration carries no CPU or NIC upgrade *)
  Helpers.alco_float "chassis" 7548.0
    (Catalog.config_cost c (Catalog.cheapest c));
  let cpus, nics = Helpers.catalog_options c in
  Alcotest.(check int) "5 cpu options" 5 (Array.length cpus);
  Alcotest.(check int) "5 nic options" 5 (Array.length nics);
  Helpers.alco_float "slowest cpu" 11720.0 cpus.(0).Catalog.speed;
  Helpers.alco_float "fastest cpu" 46880.0 cpus.(4).Catalog.speed;
  Helpers.alco_float "fastest cpu upgrade" 5299.0 cpus.(4).Catalog.cpu_cost;
  Helpers.alco_float "narrowest nic" 125.0 nics.(0).Catalog.bandwidth;
  Helpers.alco_float "widest nic" 2500.0 nics.(4).Catalog.bandwidth;
  Helpers.alco_float "widest nic upgrade" 5999.0 nics.(4).Catalog.nic_cost

let test_config_cost () =
  let c = Catalog.dell_2008 in
  Helpers.alco_float "cheapest" 7548.0
    (Catalog.config_cost c (Catalog.cheapest c));
  Helpers.alco_float "best" (7548.0 +. 5299.0 +. 5999.0)
    (Catalog.config_cost c (Catalog.best c))

let test_configs_sorted () =
  let c = Catalog.dell_2008 in
  let configs = Catalog.configs c in
  Alcotest.(check int) "25 combos" 25 (List.length configs);
  let costs = List.map (Catalog.config_cost c) configs in
  Alcotest.(check bool) "sorted by cost" true
    (List.sort compare costs = costs)

let test_cheapest_satisfying () =
  let c = Catalog.dell_2008 in
  (match Catalog.cheapest_satisfying c ~speed:0.0 ~bandwidth:0.0 with
  | Some cfg ->
    Helpers.alco_float "trivial demand -> cheapest" 7548.0
      (Catalog.config_cost c cfg)
  | None -> Alcotest.fail "should exist");
  (match Catalog.cheapest_satisfying c ~speed:20000.0 ~bandwidth:300.0 with
  | Some cfg ->
    Helpers.alco_float "speed tier" 25600.0 cfg.Catalog.cpu.Catalog.speed;
    Helpers.alco_float "nic tier" 500.0 cfg.Catalog.nic.Catalog.bandwidth
  | None -> Alcotest.fail "should exist");
  Alcotest.(check bool) "impossible demand" true
    (Catalog.cheapest_satisfying c ~speed:1e9 ~bandwidth:0.0 = None)

let cheapest_satisfying_is_optimal =
  qtest "cheapest_satisfying = brute force"
    QCheck.(pair (float_bound_exclusive 50000.0) (float_bound_exclusive 3000.0))
    (fun (speed, bandwidth) ->
      let c = Catalog.dell_2008 in
      let brute =
        List.filter
          (fun (cfg : Catalog.config) ->
            cfg.cpu.speed >= speed && cfg.nic.bandwidth >= bandwidth)
          (Catalog.configs c)
        |> List.map (Catalog.config_cost c)
        |> function [] -> None | l -> Some (List.fold_left Float.min infinity l)
      in
      match (Catalog.cheapest_satisfying c ~speed ~bandwidth, brute) with
      | None, None -> true
      | Some cfg, Some cost ->
        Helpers.float_eq (Catalog.config_cost c cfg) cost
      | _ -> false)

(* [Catalog.configs] is sorted when the catalog is built; it must equal
   a from-scratch sort by (cost, speed) of every CPU x NIC combination,
   for random catalogs and each of their homogeneous restrictions.
   Prices are small integers so cost ties between combinations are
   common. *)
let configs_match_fresh_sort =
  let increasing rng len =
    let acc = ref 0 in
    Array.init len (fun _ ->
        acc := !acc + 1 + Prng.int rng 3;
        float_of_int !acc)
  in
  qtest "configs = from-scratch (cost, speed) sort" QCheck.small_nat
    (fun seed ->
      let rng = Prng.create seed in
      let n_cpus = 1 + Prng.int rng 5 and n_nics = 1 + Prng.int rng 5 in
      let speeds = increasing rng n_cpus and cpu_costs = increasing rng n_cpus in
      let bws = increasing rng n_nics and nic_costs = increasing rng n_nics in
      let cpus =
        Array.init n_cpus (fun i ->
            { Catalog.speed = speeds.(i); cpu_cost = cpu_costs.(i) })
      and nics =
        Array.init n_nics (fun i ->
            { Catalog.bandwidth = bws.(i); nic_cost = nic_costs.(i) })
      in
      let chassis_cost = float_of_int (Prng.int rng 10) in
      let fresh cpus nics =
        let cost (c : Catalog.config) =
          chassis_cost +. c.cpu.cpu_cost +. c.nic.nic_cost
        in
        Array.to_list cpus
        |> List.concat_map (fun cpu ->
               Array.to_list nics
               |> List.map (fun nic -> { Catalog.cpu; nic }))
        |> List.sort (fun a b ->
               let c = Float.compare (cost a) (cost b) in
               if c <> 0 then c
               else Float.compare a.Catalog.cpu.speed b.Catalog.cpu.speed)
      in
      let catalog = Catalog.make ~chassis_cost ~cpus ~nics in
      Catalog.configs catalog = fresh cpus nics
      && List.for_all
           (fun cpu_index ->
             List.for_all
               (fun nic_index ->
                 Catalog.configs
                   (Catalog.homogeneous catalog ~cpu_index ~nic_index)
                 = fresh [| cpus.(cpu_index) |] [| nics.(nic_index) |])
               (List.init n_nics Fun.id))
           (List.init n_cpus Fun.id))

let test_homogeneous () =
  let c = Catalog.homogeneous Catalog.dell_2008 ~cpu_index:2 ~nic_index:1 in
  Alcotest.(check bool) "is homogeneous" true (Catalog.is_homogeneous c);
  Alcotest.(check bool) "full is not" false
    (Catalog.is_homogeneous Catalog.dell_2008);
  Helpers.alco_float "single speed" 25600.0
    (Catalog.best c).Catalog.cpu.Catalog.speed;
  Helpers.alco_float "best = cheapest"
    (Catalog.config_cost c (Catalog.best c))
    (Catalog.config_cost c (Catalog.cheapest c));
  Alcotest.check_raises "bad index"
    (Invalid_argument "Catalog.homogeneous: cpu_index out of range") (fun () ->
      ignore (Catalog.homogeneous Catalog.dell_2008 ~cpu_index:9 ~nic_index:0))

let test_catalog_validation () =
  Alcotest.check_raises "nic index out of range"
    (Invalid_argument "Catalog.homogeneous: nic_index out of range") (fun () ->
      ignore (Catalog.homogeneous Catalog.dell_2008 ~cpu_index:0 ~nic_index:5));
  Alcotest.check_raises "negative cpu index"
    (Invalid_argument "Catalog.homogeneous: cpu_index out of range") (fun () ->
      ignore (Catalog.homogeneous Catalog.dell_2008 ~cpu_index:(-1) ~nic_index:0))

(* ------------------------------------------------------------------ *)
(* Servers                                                             *)

let test_servers_basic () =
  let holds = [| [| true; true; false |]; [| true; false; true |] |] in
  let s = Servers.make ~cards:[| 100.0; 200.0 |] ~holds in
  Alcotest.(check int) "servers" 2 (Servers.n_servers s);
  Alcotest.(check int) "objects" 3 (Servers.n_object_types s);
  Helpers.alco_float "card" 200.0 (Servers.card s 1);
  Alcotest.(check (list int)) "providers o0" [ 0; 1 ] (Servers.providers s 0);
  Alcotest.(check (list int)) "providers o1" [ 0 ] (Servers.providers s 1);
  Alcotest.(check int) "availability o0" 2 (Servers.availability s 0);
  Alcotest.(check (list int)) "objects on S1" [ 0; 2 ] (Servers.objects_on s 1);
  Alcotest.(check (list (pair int int))) "exclusive"
    [ (1, 0); (2, 1) ]
    (Servers.exclusive_objects s)

let test_servers_single_object () =
  let holds = [| [| true; true |]; [| false; true |]; [| true; false |] |] in
  let s = Servers.make ~cards:[| 1.0; 1.0; 1.0 |] ~holds in
  Alcotest.(check (list int)) "single-object servers" [ 1; 2 ]
    (Servers.single_object_servers s)

let test_servers_validation () =
  Alcotest.check_raises "unheld object"
    (Invalid_argument "Servers.make: object type 1 is held by no server")
    (fun () ->
      ignore
        (Servers.make ~cards:[| 1.0 |] ~holds:[| [| true; false |] |]))

let placement_covers_objects =
  qtest "random placement covers all objects"
    QCheck.(int_range 0 2000)
    (fun seed ->
      let s =
        Servers.random_placement (Prng.create seed) ~n_servers:6
          ~n_object_types:15 ~card:10000.0 ~min_copies:1 ~max_copies:3 ()
      in
      List.for_all
        (fun k ->
          let av = Servers.availability s k in
          av >= 1 && av <= 3)
        (List.init 15 Fun.id))

let placement_respects_exact_copies =
  qtest "replication bounds honoured"
    QCheck.(int_range 0 2000)
    (fun seed ->
      let s =
        Servers.random_placement (Prng.create seed) ~n_servers:4
          ~n_object_types:10 ~card:1.0 ~min_copies:2 ~max_copies:2 ()
      in
      List.for_all
        (fun k -> Servers.availability s k = 2)
        (List.init 10 Fun.id))

(* ------------------------------------------------------------------ *)
(* Platform                                                            *)

let test_platform_defaults () =
  let p = Platform.paper_default (Prng.create 3) () in
  Alcotest.(check int) "6 servers" 6 (Servers.n_servers p.Platform.servers);
  Alcotest.(check int) "15 objects" 15
    (Servers.n_object_types p.Platform.servers);
  Helpers.alco_float "server cards" 10000.0 (Servers.card p.Platform.servers 0);
  Helpers.alco_float "server link" 1000.0 p.Platform.server_link;
  Helpers.alco_float "proc link" 1000.0 p.Platform.proc_link

let test_platform_validation () =
  let servers =
    Servers.make ~cards:[| 1.0 |] ~holds:[| [| true |] |]
  in
  Alcotest.check_raises "bad link"
    (Invalid_argument "Platform.make: non-positive link bandwidth") (fun () ->
      ignore
        (Platform.make ~catalog:Catalog.dell_2008 ~servers ~server_link:0.0 ()))

let () =
  Alcotest.run "platform"
    [
      ( "catalog",
        [
          Alcotest.test_case "Table 1 constants" `Quick test_table1_constants;
          Alcotest.test_case "config cost" `Quick test_config_cost;
          Alcotest.test_case "configs sorted" `Quick test_configs_sorted;
          Alcotest.test_case "cheapest_satisfying" `Quick
            test_cheapest_satisfying;
          Alcotest.test_case "homogeneous" `Quick test_homogeneous;
          Alcotest.test_case "validation" `Quick test_catalog_validation;
          cheapest_satisfying_is_optimal;
          configs_match_fresh_sort;
        ] );
      ( "servers",
        [
          Alcotest.test_case "basic" `Quick test_servers_basic;
          Alcotest.test_case "single-object servers" `Quick
            test_servers_single_object;
          Alcotest.test_case "validation" `Quick test_servers_validation;
          placement_covers_objects;
          placement_respects_exact_copies;
        ] );
      ( "platform",
        [
          Alcotest.test_case "paper defaults" `Quick test_platform_defaults;
          Alcotest.test_case "validation" `Quick test_platform_validation;
        ] );
    ]
