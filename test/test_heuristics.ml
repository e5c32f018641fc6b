(* Tests for the placement builder, the six heuristics, server selection
   and the downgrade step.

   The central property (the paper's correctness requirement): every
   outcome a heuristic returns passes the full constraint checker. *)

module Builder = Insp.Builder
module Common = Insp_heuristics.Common
module Solve = Insp.Solve
module Server_select = Insp.Server_select
module Downgrade = Insp.Downgrade
module Alloc = Insp.Alloc
module Check = Insp.Check
module Cost = Insp.Cost
module Catalog = Insp.Catalog
module Platform = Insp.Platform
module Demand = Insp.Demand
module Prng = Insp.Prng

let qtest = Helpers.qtest

let tiny_env () = (Helpers.tiny_app (), Helpers.tiny_platform ())

(* ------------------------------------------------------------------ *)
(* Builder                                                             *)

let test_builder_acquire_and_add () =
  let app, platform = tiny_env () in
  let b = Builder.create (Insp.Graph.of_app app) platform in
  Alcotest.(check (list int)) "all unassigned" [ 0; 1; 2; 3 ]
    (Builder.unassigned b);
  let best = Catalog.best platform.Platform.catalog in
  (match Builder.acquire b ~config:best ~members:[ 0 ] with
  | Ok gid ->
    Alcotest.(check (list int)) "member" [ 0 ] (Builder.members b gid);
    Alcotest.(check (option int)) "assigned" (Some gid)
      (Builder.assignment b 0);
    Alcotest.(check bool) "add n1" true (Builder.try_add b gid 1);
    Alcotest.(check (list int)) "two members" [ 0; 1 ] (Builder.members b gid)
  | Error e -> Alcotest.fail e);
  Alcotest.(check (list int)) "not done yet" [ 2; 3 ] (Builder.unassigned b)

let test_builder_sell_releases () =
  let app, platform = tiny_env () in
  let b = Builder.create (Insp.Graph.of_app app) platform in
  let best = Catalog.best platform.Platform.catalog in
  let gid = Result.get_ok (Builder.acquire b ~config:best ~members:[ 0; 1 ]) in
  Builder.sell b gid;
  Alcotest.(check (list int)) "released" [ 0; 1; 2; 3 ] (Builder.unassigned b);
  Alcotest.(check (list int)) "no groups" [] (Builder.group_ids b)

let test_builder_absorb () =
  let app, platform = tiny_env () in
  let b = Builder.create (Insp.Graph.of_app app) platform in
  let best = Catalog.best platform.Platform.catalog in
  let g1 = Result.get_ok (Builder.acquire b ~config:best ~members:[ 0; 1 ]) in
  let g2 = Result.get_ok (Builder.acquire b ~config:best ~members:[ 2; 3 ]) in
  Alcotest.(check bool) "absorb ok" true (Builder.try_absorb b g1 g2);
  Alcotest.(check (list int)) "merged" [ 0; 1; 2; 3 ] (Builder.members b g1);
  Alcotest.(check (list int)) "one group" [ g1 ] (Builder.group_ids b)

let test_builder_rejects_pair_flow () =
  (* Shrink the inter-processor link below the n2->n0 edge (50 MB/s):
     splitting that edge must be rejected. *)
  let app = Helpers.tiny_app () in
  let holds = [| [| true; true; false |]; [| true; false; true |] |] in
  let servers = Insp.Servers.make ~cards:[| 10000.0; 10000.0 |] ~holds in
  let platform =
    Platform.make ~catalog:Catalog.dell_2008 ~servers ~proc_link:40.0 ()
  in
  let b = Builder.create (Insp.Graph.of_app app) platform in
  let best = Catalog.best platform.Platform.catalog in
  let g1 = Result.get_ok (Builder.acquire b ~config:best ~members:[ 0; 1 ]) in
  (match Builder.acquire b ~config:best ~members:[ 2; 3 ] with
  | Ok _ -> Alcotest.fail "should reject: edge n2->n0 exceeds the link"
  | Error _ -> ());
  (* But placing all four together is fine (the heavy edge becomes
     internal); the overlapping group must be excluded from the
     pair-flow check. *)
  Alcotest.(check bool) "co-located ok" true
    (Builder.can_host b ~config:best ~members:[ 0; 1; 2; 3 ]
       ~ignore_groups:[ g1 ] ())

let test_builder_finalize_incomplete () =
  let app, platform = tiny_env () in
  let b = Builder.create (Insp.Graph.of_app app) platform in
  match Builder.finalize b with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "finalize must fail with unassigned operators"

let test_builder_upgrade_variants () =
  let app, platform = tiny_env () in
  let b = Builder.create (Insp.Graph.of_app app) platform in
  let cheapest = Catalog.cheapest platform.Platform.catalog in
  let gid = Result.get_ok (Builder.acquire b ~config:cheapest ~members:[ 3 ]) in
  (* tiny app is light: plain add already fits, upgrade keeps it cheap *)
  Alcotest.(check bool) "add upgrade" true (Builder.try_add_upgrade b gid 2);
  Alcotest.(check (list int)) "members" [ 2; 3 ] (Builder.members b gid)

(* ------------------------------------------------------------------ *)
(* Heuristic correctness on random instances                           *)

let heuristic_outcomes_pass_checker =
  qtest ~count:60 "every heuristic outcome passes the checker"
    Helpers.small_instance_gen (fun inst ->
      List.for_all
        (fun (_, r) ->
          match r with
          | Ok (o : Solve.outcome) -> Helpers.check_feasible inst o.alloc = []
          | Error _ -> true)
        (Solve.run_all ~seed:11 inst.Insp.Instance.app
           inst.Insp.Instance.platform))

let heuristic_outcomes_complete =
  qtest ~count:60 "outcomes assign every operator"
    Helpers.small_instance_gen (fun inst ->
      let n = Insp.App.n_operators inst.Insp.Instance.app in
      List.for_all
        (fun (_, r) ->
          match r with
          | Ok (o : Solve.outcome) -> Helpers.n_assigned o.alloc = n
          | Error _ -> true)
        (Solve.run_all ~seed:3 inst.Insp.Instance.app
           inst.Insp.Instance.platform))

let heuristic_cost_matches_alloc =
  qtest ~count:40 "reported cost matches the allocation"
    Helpers.small_instance_gen (fun inst ->
      let catalog = inst.Insp.Instance.platform.Platform.catalog in
      List.for_all
        (fun (_, r) ->
          match r with
          | Ok (o : Solve.outcome) ->
            Helpers.float_eq o.cost (Cost.of_alloc catalog o.alloc)
            && o.n_procs = Alloc.n_procs o.alloc
          | Error _ -> true)
        (Solve.run_all ~seed:5 inst.Insp.Instance.app
           inst.Insp.Instance.platform))

let deterministic_heuristics_stable =
  qtest ~count:30 "deterministic heuristics ignore the seed"
    Helpers.small_instance_gen (fun inst ->
      let app = inst.Insp.Instance.app in
      let platform = inst.Insp.Instance.platform in
      List.for_all
        (fun h ->
          h.Solve.randomized
          ||
          let a = Solve.run ~seed:1 h app platform in
          let b = Solve.run ~seed:99 h app platform in
          match (a, b) with
          | Ok oa, Ok ob ->
            Helpers.float_eq oa.Solve.cost ob.Solve.cost
            && oa.Solve.n_procs = ob.Solve.n_procs
          | Error _, Error _ -> true
          | _ -> false)
        Solve.all)

let random_heuristic_reproducible =
  qtest ~count:30 "Random heuristic reproducible per seed"
    Helpers.small_instance_gen (fun inst ->
      let app = inst.Insp.Instance.app in
      let platform = inst.Insp.Instance.platform in
      let h = List.find (fun h -> h.Solve.key = "random") Solve.all in
      match (Solve.run ~seed:42 h app platform, Solve.run ~seed:42 h app platform) with
      | Ok a, Ok b -> Helpers.float_eq a.Solve.cost b.Solve.cost
      | Error _, Error _ -> true
      | _ -> false)

let test_find_heuristics () =
  Alcotest.(check int) "six heuristics" 6 (List.length Solve.all);
  Alcotest.(check bool) "find by key" true (Solve.find "sbu" <> None);
  Alcotest.(check bool) "find by name" true
    (Solve.find "subtree-bottom-up" <> None);
  Alcotest.(check bool) "unknown" true (Solve.find "nope" = None)

let test_heuristics_tiny_instance () =
  (* On the tiny app everything fits one processor; every deterministic
     heuristic should find a feasible (not necessarily 1-proc)
     solution. *)
  let app, platform = tiny_env () in
  List.iter
    (fun h ->
      match Solve.run ~seed:1 h app platform with
      | Ok o ->
        Alcotest.(check bool)
          (h.Solve.name ^ " feasible") true
          (Check.check app platform o.Solve.alloc = [])
      | Error f ->
        Alcotest.fail (h.Solve.name ^ ": " ^ Solve.failure_message f))
    Solve.all

(* ------------------------------------------------------------------ *)
(* Server selection                                                    *)

let test_server_selection_covers_needs () =
  let app, platform = tiny_env () in
  let groups = [| [ 0; 1 ]; [ 2; 3 ] |] in
  match Server_select.sophisticated app platform ~groups with
  | Error e -> Alcotest.fail e
  | Ok plan ->
    Alcotest.(check int) "two plans" 2 (Array.length plan);
    Alcotest.(check (list int)) "P0 needs o0 o1" [ 0; 1 ]
      (List.map fst plan.(0));
    Alcotest.(check (list int)) "P1 needs o0 o2" [ 0; 2 ]
      (List.map fst plan.(1));
    (* o1 only on S0; o2 only on S1 (exclusive loop). *)
    Alcotest.(check (option int)) "o1 from S0" (Some 0)
      (List.assoc_opt 1 plan.(0));
    Alcotest.(check (option int)) "o2 from S1" (Some 1)
      (List.assoc_opt 2 plan.(1))

let test_server_selection_fails_when_exclusive_saturated () =
  (* o1 exclusively on S0 whose card cannot even carry it. *)
  let app = Helpers.tiny_app () in
  let holds = [| [| true; true; false |]; [| true; false; true |] |] in
  let servers = Insp.Servers.make ~cards:[| 8.0; 10000.0 |] ~holds in
  let platform = Platform.make ~catalog:Catalog.dell_2008 ~servers () in
  (* o1 rate = 10 > 8 *)
  match Server_select.sophisticated app platform ~groups:[| [ 0; 1; 2; 3 ] |] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "must fail: exclusive server saturated"

let test_random_selection_valid () =
  let app, platform = tiny_env () in
  let groups = [| [ 0; 1 ]; [ 2; 3 ] |] in
  match Server_select.random (Prng.create 4) app platform ~groups with
  | Error e -> Alcotest.fail e
  | Ok plan ->
    Array.iteri
      (fun u per_proc ->
        List.iter
          (fun (k, l) ->
            Alcotest.(check bool)
              (Printf.sprintf "P%d o%d held by S%d" u k l)
              true
              (Insp.Servers.holds platform.Platform.servers l k))
          per_proc)
      plan

let selection_respects_capacities =
  qtest ~count:40 "sophisticated selection respects server capacities"
    Helpers.small_instance_gen (fun inst ->
      let app = inst.Insp.Instance.app in
      let platform = inst.Insp.Instance.platform in
      (* Build a plausible grouping with the SBU heuristic's placement. *)
      let h = List.find (fun h -> h.Solve.key = "sbu") Solve.all in
      match h.Solve.run (Prng.create 0) app platform with
      | Error _ -> true
      | Ok builder -> (
        match Builder.finalize builder with
        | Error _ -> true
        | Ok (groups, configs) -> (
          match Server_select.sophisticated app platform ~groups with
          | Error _ -> true
          | Ok downloads ->
            let alloc = Alloc.of_groups ~configs ~groups ~downloads in
            (* No server-side violation may remain. *)
            List.for_all
              (function
                | Check.Server_card_overload _
                | Check.Server_link_overload _
                | Check.Missing_download _
                | Check.Not_held _ -> false
                | _ -> true)
              (Check.check app platform alloc))))

(* ------------------------------------------------------------------ *)
(* Downgrade                                                           *)

let downgrade_preserves_feasibility_and_cost =
  qtest ~count:40 "downgrade keeps feasibility and never raises cost"
    Helpers.small_instance_gen (fun inst ->
      let app = inst.Insp.Instance.app in
      let platform = inst.Insp.Instance.platform in
      let catalog = platform.Platform.catalog in
      let h = List.find (fun h -> h.Solve.key = "comp") Solve.all in
      match h.Solve.run (Prng.create 0) app platform with
      | Error _ -> true
      | Ok builder -> (
        match Builder.finalize builder with
        | Error _ -> true
        | Ok (groups, configs) -> (
          match Server_select.sophisticated app platform ~groups with
          | Error _ -> true
          | Ok downloads ->
            let alloc = Alloc.of_groups ~configs ~groups ~downloads in
            let before = Cost.of_alloc catalog alloc in
            let down = Downgrade.run app platform alloc in
            let after = Cost.of_alloc catalog down in
            after <= before +. 1e-6
            && (Check.check app platform alloc <> []
               || Check.check app platform down = []))))

let test_downgrade_tiny () =
  let app, platform = tiny_env () in
  let alloc =
    Alloc.make
      [|
        {
          Alloc.config = Catalog.best platform.Platform.catalog;
          operators = [ 0; 1; 2; 3 ];
          downloads = [ (0, 0); (1, 0); (2, 1) ];
        };
      |]
  in
  let down = Downgrade.run app platform alloc in
  (* 170 Mops/s and 35 MB/s fit the cheapest model. *)
  Helpers.alco_float "downgraded to chassis price" 7548.0
    (Cost.of_alloc platform.Platform.catalog down);
  Alcotest.(check string) "still feasible" "feasible"
    (Check.explain (Check.check app platform down))

(* ------------------------------------------------------------------ *)
(* Ablation knobs                                                      *)

let test_collapse_rounds_scoped () =
  (* The knob must restore its previous value, even on exceptions. *)
  let probe () =
    (* observable effect: a 3-op heavy chain needs > 1 round *)
    ()
  in
  Common.with_collapse_rounds 1 probe;
  (try
     Common.with_collapse_rounds 2 (fun () -> failwith "boom")
   with Failure _ -> ());
  (* No direct getter; instead verify behaviour is back to default by
     solving a chain instance that *requires* multi-round collapse. *)
  let inst = Helpers.instance ~n:100 ~alpha:0.9 ~seed:1 () in
  let sbu = List.find (fun h -> h.Solve.key = "sbu") Solve.all in
  let with_default =
    Solve.run ~seed:1 sbu inst.Insp.Instance.app inst.Insp.Instance.platform
  in
  let with_one =
    Common.with_collapse_rounds 1 (fun () ->
        Solve.run ~seed:1 sbu inst.Insp.Instance.app
          inst.Insp.Instance.platform)
  in
  (* Default must do at least as well as the single-round variant. *)
  match (with_default, with_one) with
  | Ok a, Ok b ->
    Alcotest.(check bool) "default no worse" true
      (a.Solve.cost <= b.Solve.cost +. 1e-6)
  | Ok _, Error _ -> () (* single round failed where default succeeded *)
  | Error _, Ok _ -> Alcotest.fail "default failed where 1 round succeeded"
  | Error _, Error _ -> ()

let test_merge_sweeps_scoped () =
  let comm = List.find (fun h -> h.Solve.key = "comm") Solve.all in
  let inst =
    Insp.Instance.generate
      (Insp.Config.make ~n_operators:30 ~alpha:0.9 ~sizes:Insp.Config.Large
         ~seed:1 ())
  in
  let run () =
    Solve.run ~seed:1 comm inst.Insp.Instance.app inst.Insp.Instance.platform
  in
  let with_sweeps = run () in
  let without =
    Insp_heuristics.H_comm_greedy.with_merge_sweeps false run
  in
  let again = run () in
  (match (with_sweeps, without) with
  | Ok a, Ok b ->
    Alcotest.(check bool) "sweeps never hurt" true
      (a.Solve.cost <= b.Solve.cost +. 1e-6)
  | _ -> ());
  match (with_sweeps, again) with
  | Ok a, Ok c ->
    Helpers.alco_float "flag restored (same cost again)" a.Solve.cost
      c.Solve.cost
  | Error _, Error _ -> ()
  | _ -> Alcotest.fail "flag not restored"

let () =
  Alcotest.run "heuristics"
    [
      ( "builder",
        [
          Alcotest.test_case "acquire/add" `Quick test_builder_acquire_and_add;
          Alcotest.test_case "sell releases" `Quick test_builder_sell_releases;
          Alcotest.test_case "absorb" `Quick test_builder_absorb;
          Alcotest.test_case "pair-flow rejection" `Quick
            test_builder_rejects_pair_flow;
          Alcotest.test_case "finalize incomplete" `Quick
            test_builder_finalize_incomplete;
          Alcotest.test_case "upgrade variants" `Quick
            test_builder_upgrade_variants;
        ] );
      ( "heuristics",
        [
          Alcotest.test_case "registry" `Quick test_find_heuristics;
          Alcotest.test_case "tiny instance all feasible" `Quick
            test_heuristics_tiny_instance;
          heuristic_outcomes_pass_checker;
          heuristic_outcomes_complete;
          heuristic_cost_matches_alloc;
          deterministic_heuristics_stable;
          random_heuristic_reproducible;
        ] );
      ( "server_selection",
        [
          Alcotest.test_case "covers needs" `Quick
            test_server_selection_covers_needs;
          Alcotest.test_case "exclusive saturated fails" `Quick
            test_server_selection_fails_when_exclusive_saturated;
          Alcotest.test_case "random selection valid" `Quick
            test_random_selection_valid;
          selection_respects_capacities;
        ] );
      ( "downgrade",
        [
          Alcotest.test_case "tiny" `Quick test_downgrade_tiny;
          downgrade_preserves_feasibility_and_cost;
        ] );
      ( "ablation_knobs",
        [
          Alcotest.test_case "collapse rounds scoped" `Quick
            test_collapse_rounds_scoped;
          Alcotest.test_case "merge sweeps scoped" `Quick
            test_merge_sweeps_scoped;
        ] );
    ]
