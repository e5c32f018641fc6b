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
  | Error _ -> Alcotest.fail "acquire refused");
  Alcotest.(check (list int)) "not done yet" [ 2; 3 ] (Builder.unassigned b)

(* A `Cheapest purchase is one probe: the catalog scan that picks the
   configuration also admits the purchase, so it is neither re-probed
   nor counted twice. *)
let test_builder_cheapest_one_probe () =
  let app, platform = tiny_env () in
  let b = Builder.create (Insp.Graph.of_app app) platform in
  let bought, r =
    Insp.Obs.with_sink ~journal:true (fun () ->
        Builder.acquire_cheapest b ~members:[ 0; 1 ])
  in
  let gid =
    match bought with Ok gid -> gid | Error _ -> Alcotest.fail "acquire refused"
  in
  Alcotest.(check (list int)) "members" [ 0; 1 ] (Builder.members b gid);
  let probes =
    List.filter
      (function Insp.Obs_journal.Probe _ -> true | _ -> false)
      (Insp.Obs_journal.events r.Insp.Obs.journal)
  in
  Alcotest.(check int) "one probe event" 1 (List.length probes);
  Alcotest.(check (option int)) "heur.probe" (Some 1)
    (Insp.Obs_metrics.counter r.Insp.Obs.metrics "heur.probe")

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
  | Error reject ->
    Alcotest.(check bool) "refused on the link" true
      (reject = Insp.Obs_journal.Link_exceeded));
  (* But placing all four together is fine: each heavy edge becomes
     internal as its operator joins g1. *)
  Alcotest.(check bool) "co-located ok" true
    (Builder.try_add b g1 2 && Builder.try_add b g1 3);
  Alcotest.(check (list int)) "all on g1" [ 0; 1; 2; 3 ] (Builder.members b g1)

(* ------------------------------------------------------------------ *)
(* try_add's compute screen = the full probe                           *)

module J = Insp.Obs_journal

(* The builder mutations of a placement journal, in order. *)
let mutations events =
  List.filter
    (function
      | J.Acquire _ | J.Add_op _ | J.Merge_groups _ | J.Sell _ -> true
      | _ -> false)
    events

(* The state after the first [k] mutations, replayed onto a fresh
   builder (each replayed decision must take again). *)
let replay g platform muts k =
  let b = Builder.create g platform in
  let config label =
    List.find
      (fun c -> Catalog.label c = label)
      (Catalog.configs platform.Platform.catalog)
  in
  List.iteri
    (fun idx ev ->
      if idx < k then
        let took =
          match ev with
          | J.Acquire { gid; config = label; members } ->
            Builder.acquire b ~config:(config label) ~members = Ok gid
          | J.Add_op { gid; op; upgrade = None } -> Builder.try_add b gid op
          | J.Add_op { gid; op; upgrade = Some _ } ->
            Builder.try_add_upgrade b gid op
          | J.Merge_groups { winner; loser; upgrade = None } ->
            Builder.try_absorb b winner loser
          | J.Merge_groups { winner; loser; upgrade = Some _ } ->
            Builder.try_absorb_upgrade b winner loser
          | J.Sell { gid } ->
            Builder.sell b gid;
            true
          | _ -> true
        in
        if not took then Alcotest.failf "replay diverged at mutation %d" idx)
    muts;
  b

(* What the full probe decides for [op] on [gid]: its demand against the
   group's configuration, then every changed pair flow against the
   processor link. *)
let full_probe_reject b gid op =
  let probe = Insp.Ledger.probe_add (Builder.ledger b) gid op in
  let link = (Builder.platform b).Platform.proc_link in
  if not (Demand.fits (Builder.config b gid) probe.Insp.Ledger.demand) then
    Some J.Demand_exceeded
  else if
    not (List.for_all (fun (_, f) -> Builder.leq f link) probe.Insp.Ledger.pair_flows)
  then Some J.Link_exceeded
  else None

(* At every mid-run state of a placement, every (live group, unassigned
   operator) pair: [try_add] takes exactly when the full probe accepts,
   journals the probe's reason when it refuses, and a refusal leaves the
   ledger as it was.  Counts the verdicts by reason into [seen]. *)
let screen_matches_probe seen what g platform muts =
  for k = 0 to List.length muts do
    let b = ref (replay g platform muts k) in
    List.iter
      (fun gid ->
        List.iter
          (fun op ->
            let expected = full_probe_reject !b gid op in
            Hashtbl.replace seen expected
              (1 + Option.value ~default:0 (Hashtbl.find_opt seen expected));
            let before = Insp.Ledger.state_key (Builder.ledger !b) in
            let took, r =
              Insp.Obs.with_sink ~journal:true (fun () ->
                  Builder.try_add !b gid op)
            in
            let where = Printf.sprintf "%s, state %d, op %d on %d" what k op gid in
            match (expected, took, J.events r.Insp.Obs.journal) with
            | None, true, [ J.Add_op { gid = g'; op = o'; upgrade = None } ]
              when g' = gid && o' = op ->
              b := replay g platform muts k
            | Some reason, false, [ J.Reject_add { gid = g'; op = o'; reject } ]
              when g' = gid && o' = op && reject = reason ->
              if Insp.Ledger.state_key (Builder.ledger !b) <> before then
                Alcotest.failf "%s: the refusal changed the ledger" where
            | _ -> Alcotest.failf "%s: try_add disagrees with the probe" where)
          (Builder.unassigned !b))
      (Builder.group_ids !b)
  done

let test_try_add_screen () =
  let seen = Hashtbl.create 3 in
  List.iter
    (fun (n, alpha, sizes, seed) ->
      let inst = Helpers.instance ~n ~alpha ~sizes ~seed () in
      let g = Insp.Graph.of_app inst.Insp.Instance.app in
      let platform = inst.Insp.Instance.platform in
      List.iter
        (fun (h : Solve.heuristic) ->
          let (_ : (Builder.t, string) result), r =
            Insp.Obs.with_sink ~journal:true (fun () ->
                h.Solve.place (Prng.create seed) g platform)
          in
          let what = Printf.sprintf "%s on N=%d a=%g seed %d" h.Solve.key n alpha seed in
          screen_matches_probe seen what g platform
            (mutations (J.events r.Insp.Obs.journal)))
        Solve.all)
    [ (12, 0.9, Insp.Config.Small, 1); (20, 1.7, Insp.Config.Small, 4);
      (20, 1.5, Insp.Config.Large, 3) ];
  List.iter
    (fun (what, reason) ->
      Alcotest.(check bool) (what ^ " seen") true (Hashtbl.mem seen reason))
    [ ("a take", None); ("a compute refusal", Some J.Demand_exceeded);
      ("a link refusal", Some J.Link_exceeded) ]

(* ------------------------------------------------------------------ *)
(* Random = the list-based pick                                        *)

(* One placement under a journaling sink: its JSONL journal, the final
   ledger state or the failure, and its grouping sells. *)
let journaled_place place seed g platform =
  let placed, r =
    Insp.Obs.with_sink ~journal:true (fun () ->
        place (Prng.create seed) g platform)
  in
  ( J.to_jsonl r.Insp.Obs.journal,
    Result.map (fun b -> Insp.Ledger.state_key (Builder.ledger b)) placed,
    List.length
      (List.filter
         (function J.Sell _ -> true | _ -> false)
         (J.events r.Insp.Obs.journal)) )

(* 30 paper instances (N 60/100, alpha 0.9/1.5/1.7, seeds 1-5; 15 of
   them sell during grouping, and two, N=100 seed 2 at alpha 0.9 and
   1.5, cycle until their repeated state ends them, within 2n sells
   where the n^2 + 16 round budget allowed 9,917) and a 2,000-operator
   scale tree. *)
let test_random_like_oracle () =
  let paper =
    List.concat_map
      (fun n ->
        List.concat_map
          (fun alpha ->
            List.init 5 (fun i ->
                ( Printf.sprintf "N=%d a=%g seed %d" n alpha (i + 1),
                  i + 1,
                  Helpers.instance ~n ~alpha ~seed:(i + 1) () )))
          [ 0.9; 1.5; 1.7 ])
      [ 60; 100 ]
  in
  let scale =
    ("scale N=2000", 1, Insp.Instance.generate (Insp.Config.scale ~n_operators:2000 ()))
  in
  let selling = ref 0 and cycling = ref 0 in
  List.iter
    (fun (what, seed, inst) ->
      let g = Insp.Graph.of_app inst.Insp.Instance.app in
      let platform = inst.Insp.Instance.platform in
      let journal, final, sells =
        journaled_place Insp_heuristics.H_random.run seed g platform
      in
      let journal', final', _ = journaled_place Oracles.list_random seed g platform in
      Alcotest.(check string) (what ^ ": journal") journal' journal;
      Alcotest.(check (result string string)) (what ^ ": outcome") final' final;
      if sells > 0 then incr selling;
      match final with
      | Error e when e = "placement did not converge (grouping fallback oscillates)" ->
        incr cycling;
        if sells > 2 * Insp.Graph.n_nodes g then
          Alcotest.failf "%s: %d sells before the cycle ended" what sells
      | Ok _ | Error _ -> ())
    (paper @ [ scale ]);
  Alcotest.(check int) "runs that sell" 15 !selling;
  Alcotest.(check int) "runs that cycle" 2 !cycling

(* ------------------------------------------------------------------ *)
(* Failure texts                                                       *)

(* The tiny application on processors of 1 Mops/s: no operator fits
   anywhere, alone or grouped. *)
let unplaceable_env () =
  let catalog =
    Catalog.make ~chassis_cost:1.0
      ~cpus:[| { Catalog.speed = 1.0; cpu_cost = 1.0 } |]
      ~nics:[| { Catalog.bandwidth = 1000.0; nic_cost = 1.0 } |]
  in
  ( Helpers.tiny_app (),
    Platform.make ~catalog ~servers:(Helpers.tiny_platform ()).Platform.servers () )

let test_failure_texts () =
  let app, platform = unplaceable_env () in
  List.iter
    (fun (key, text) ->
      match Solve.run ~seed:1 (Option.get (Solve.find key)) app platform with
      | Ok _ -> Alcotest.failf "%s placed an unplaceable instance" key
      | Error f -> Alcotest.(check string) key text (Solve.failure_message f))
    [
      ("random", "placement failed: no processor can host operators {3, 2, 0, 1}");
      ("comp", "placement failed: no processor can host operators {3, 1, 2, 0}");
      ("comm", "placement failed: no processor can host operators {2}");
    ];
  (* A survivor whose own processor cannot host its operators again. *)
  let inst = Helpers.instance ~n:20 ~seed:1 () in
  let cheapest = Catalog.cheapest inst.Insp.Instance.platform.Platform.catalog in
  let alloc =
    Alloc.make
      [|
        { Alloc.config = cheapest; operators = List.init 19 Fun.id; downloads = [] };
        { Alloc.config = cheapest; operators = [ 19 ]; downloads = [] };
      |]
  in
  match
    Insp.Fault_repair.run
      (Insp.Graph.of_app inst.Insp.Instance.app)
      inst.Insp.Instance.platform alloc ~failed:[ 1 ]
  with
  | Ok _ -> Alcotest.fail "the survivor must not fit"
  | Error msg ->
    Alcotest.(check string) "repair"
      "survivor 0 re-acquire: cannot host operators {0, 1, 2, 3, 4, 5, 6, 7, \
       8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18} on the requested processor"
      msg

(* ------------------------------------------------------------------ *)
(* Consolidation = the list-based sweep                                *)

(* A builder state to consolidate: operators in id order, each joining
   a random group or, half the time and whenever that fails, buying a
   processor of a random configuration for itself (left unassigned when
   none can host it alone).  Replaying a seed rebuilds the same state. *)
let random_groups seed g platform =
  let b = Builder.create g platform in
  let rng = Prng.create seed in
  let configs = Array.of_list (Catalog.configs platform.Platform.catalog) in
  for op = 0 to Insp.Graph.n_nodes g - 1 do
    let ids = Builder.group_ids b in
    let joined =
      ids <> [] && Prng.int rng 2 = 0
      && Builder.try_add b (Prng.choose_list rng ids) op
    in
    if not joined then
      ignore
        (Builder.acquire b ~config:(Prng.choose rng configs) ~members:[ op ])
  done;
  b

(* Production consolidation and the oracle, each on its own replay of
   the same state, journal the same merge probes in the same order and
   leave equal ledgers and acquisition orders. *)
let consolidates_like_oracle seed g platform =
  let run consolidate =
    let b = random_groups seed g platform in
    let (), r = Insp.Obs.with_sink ~journal:true (fun () -> consolidate b) in
    ( Insp.Obs_journal.events r.Insp.Obs.journal,
      Insp.Ledger.state_key (Builder.ledger b),
      Builder.group_ids b )
  in
  run Insp_heuristics.H_subtree.consolidate = run Oracles.list_consolidate

let consolidate_tree_equiv =
  qtest ~count:100 "consolidate = list-based sweep (trees)"
    QCheck.(pair small_nat Helpers.small_instance_gen)
    (fun (seed, inst) ->
      consolidates_like_oracle seed
        (Insp.Graph.of_app inst.Insp.Instance.app)
        inst.Insp.Instance.platform)

let consolidate_dag_equiv =
  qtest ~count:40 "consolidate = list-based sweep (CSE sets)"
    QCheck.(pair small_nat small_nat)
    (fun (seed, set) ->
      let apps, platform =
        Insp.Multi_workload.instance ~seed:set ~n_apps:3 ~n_operators:20
      in
      consolidates_like_oracle seed
        (Insp.Dag.graph (Insp.Cse.share_apps apps))
        platform)

(* A merge whose load fills the winner's CPU exactly: {n1} (30 Mops/s)
   and {n3} (10) on 40 Mops/s processors exchange no stream, so the
   spare-CPU index alone finds {n3} for loser {n1}, and must list a
   winner with no slack to spare. *)
let test_consolidate_exact_fit () =
  let app = Helpers.tiny_app () in
  let catalog =
    Catalog.make ~chassis_cost:1.0
      ~cpus:[| { Catalog.speed = 40.0; cpu_cost = 1.0 } |]
      ~nics:[| { Catalog.bandwidth = 1000.0; nic_cost = 1.0 } |]
  in
  let platform =
    Platform.make ~catalog ~servers:(Helpers.tiny_platform ()).Platform.servers ()
  in
  let b = Builder.create (Insp.Graph.of_app app) platform in
  let config = Catalog.best catalog in
  ignore (Result.get_ok (Builder.acquire b ~config ~members:[ 1 ]));
  let g3 = Result.get_ok (Builder.acquire b ~config ~members:[ 3 ]) in
  Insp_heuristics.H_subtree.consolidate b;
  Alcotest.(check (list int)) "one group left" [ g3 ] (Builder.group_ids b);
  Alcotest.(check (list int)) "both operators on it" [ 1; 3 ]
    (Builder.members b g3)

(* Hundreds of groups: scale trees of 2k-5k operators and 6 x 60 CSE
   sets, the size multi_shared places. *)
let consolidate_large_equiv =
  qtest ~count:6 "consolidate = list-based sweep (hundreds of groups)"
    QCheck.(pair small_nat (int_range 2000 5000))
    (fun (seed, n) ->
      let inst =
        Insp.Instance.generate (Insp.Config.scale ~seed ~n_operators:n ())
      in
      let apps, platform =
        Insp.Multi_workload.instance ~seed ~n_apps:6 ~n_operators:60
      in
      consolidates_like_oracle seed
        (Insp.Graph.of_app inst.Insp.Instance.app)
        inst.Insp.Instance.platform
      && consolidates_like_oracle seed
           (Insp.Dag.graph (Insp.Cse.share_apps apps))
           platform)

(* Two paper instances (N=100 and N=80, alpha 1.5) on which Comp-Greedy
   and Object-Availability reach an already-seen ledger state within a
   few rounds and would cycle until the n^2 + 16 round budget ran out.
   They must fail as the budget would, long before spending it: fewer
   probes than the budget's n^2 rounds, where every round probes at
   least once. *)
let test_repeated_state_exits () =
  List.iter
    (fun (n, seed) ->
      let inst =
        Insp.Instance.generate
          (Insp.Config.make ~n_operators:n ~alpha:1.5 ~seed ())
      in
      List.iter
        (fun key ->
          let what = Printf.sprintf "%s on N=%d seed %d" key n seed in
          let outcome, r =
            Insp.Obs.with_sink (fun () ->
                Solve.run ~seed (Option.get (Solve.find key))
                  inst.Insp.Instance.app inst.Insp.Instance.platform)
          in
          (match outcome with
          | Ok _ -> Alcotest.failf "%s: the cycling loop must not place" what
          | Error f ->
            Alcotest.(check string)
              (what ^ ": the budget's failure")
              "placement failed: placement did not converge (grouping \
               fallback oscillates)"
              (Solve.failure_message f));
          let probes =
            Option.value ~default:0
              (Insp.Obs_metrics.counter r.Insp.Obs.metrics "heur.probe")
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s: %d probes, fewer than n^2 = %d" what probes
               (n * n))
            true
            (probes < n * n))
        [ "comp"; "objavail" ])
    [ (100, 100115); (80, 101095) ]

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
  Alcotest.(check bool) "sbu is the registry's entry" true
    (Option.get (Solve.find "sbu") == Solve.sbu);
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
(* Flat selection = the list/Hashtbl oracle                            *)

(* One selection under a journaling sink: its plans or failure text and
   its JSONL journal. *)
let journaled_select select =
  let plan, r = Insp.Obs.with_sink ~journal:true select in
  (plan, J.to_jsonl r.Insp.Obs.journal)

let plan_t = Alcotest.(result (array (list (pair int int))) string)

(* The contention cells of the server-selection ablation: large objects
   on two servers, where the server cards bind. *)
let contended ~n ~seed =
  Insp.Instance.generate
    (Insp.Config.make ~n_operators:n ~alpha:0.9 ~sizes:Insp.Config.Large
       ~n_servers:2 ~seed ())

(* Both rules, flat and oracle, on the groups [place] leaves: equal plans
   or failure texts and equal journals.  Counts the failures of each
   rule, so the corpus is seen to reach them. *)
let select_like_oracle ~what ~seed ~fails place g platform =
  match place (Prng.create seed) g platform with
  | Error _ -> ()
  | Ok b -> (
    match Builder.finalize b with
    | Error _ -> ()
    | Ok (groups, _) ->
      List.iteri
        (fun i (rule, flat, oracle) ->
          let plan, journal = journaled_select flat in
          let plan', journal' = journaled_select oracle in
          let what = Printf.sprintf "%s, %s" what rule in
          Alcotest.check plan_t (what ^ ": plans") plan' plan;
          Alcotest.(check string) (what ^ ": journal") journal' journal;
          if Result.is_error plan then fails.(i) <- fails.(i) + 1)
        [
          ( "three-loop",
            (fun () -> Server_select.sophisticated_graph g platform ~groups),
            fun () -> Oracles.list_three_loop g platform ~groups );
          ( "random",
            (fun () ->
              Server_select.random_graph (Prng.create seed) g platform ~groups),
            fun () ->
              Oracles.list_random_servers (Prng.create seed) g platform ~groups
          );
        ])

(* All six heuristics' placements on the paper grid (N 20-100, alpha
   0.9/1.5/1.7, seed 1), SBU on 20 CSE-shared Multi_workload sets and on
   the 80 contention instances. *)
let test_select_like_oracle () =
  let fails = [| 0; 0 |] in
  List.iter
    (fun n ->
      List.iter
        (fun alpha ->
          let inst = Helpers.instance ~n ~alpha ~seed:1 () in
          let g = Insp.Graph.of_app inst.Insp.Instance.app in
          List.iter
            (fun h ->
              select_like_oracle ~fails ~seed:1
                ~what:(Printf.sprintf "N=%d a=%g %s" n alpha h.Solve.key)
                h.Solve.place g inst.Insp.Instance.platform)
            Solve.all)
        [ 0.9; 1.5; 1.7 ])
    [ 20; 40; 60; 80; 100 ];
  for seed = 1 to 20 do
    let apps, platform =
      Insp.Multi_workload.instance ~seed ~n_apps:(2 + (seed mod 3)) ~n_operators:20
    in
    select_like_oracle ~fails ~seed
      ~what:(Printf.sprintf "CSE set %d" seed)
      (Insp_heuristics.H_subtree.run Insp_heuristics.H_subtree.Dag)
      (Insp.Dag.graph (Insp.Cse.share_apps apps))
      platform
  done;
  List.iter
    (fun n ->
      for seed = 1 to 40 do
        let inst = contended ~n ~seed in
        select_like_oracle ~fails ~seed
          ~what:(Printf.sprintf "contended N=%d seed %d" n seed)
          Solve.sbu.Solve.place
          (Insp.Graph.of_app inst.Insp.Instance.app)
          inst.Insp.Instance.platform
      done)
    [ 20; 40 ];
  Alcotest.(check bool) "three-loop failures seen" true (fails.(0) > 0);
  Alcotest.(check bool) "random failures seen" true (fails.(1) > 0)

(* One contention instance per outcome class of the server-selection
   ablation (N=40, large objects, two servers), SBU placement and each
   rule through [Solve.finish], random drawing from seed 99. *)
let test_selection_outcome_classes () =
  let run seed selection =
    let inst = contended ~n:40 ~seed in
    let g = Insp.Graph.of_app inst.Insp.Instance.app in
    let platform = inst.Insp.Instance.platform in
    match Solve.sbu.Solve.place (Prng.create seed) g platform with
    | Error m -> "placement failed: " ^ m
    | Ok b -> (
      match
        Solve.finish ~key:Solve.sbu.Solve.key selection (Prng.create 99) g
          platform b
      with
      | Ok o -> Printf.sprintf "ok $%.0f" o.Solve.cost
      | Error f -> Solve.failure_message f)
  in
  List.iter
    (fun (seed, what, random, three_loop) ->
      Alcotest.(check string) (what ^ ": random") random
        (run seed Solve.Random_servers);
      Alcotest.(check string) (what ^ ": three-loop") three_loop
        (run seed Solve.Three_loop))
    [
      (1, "both succeed", "ok $78083", "ok $78083");
      ( 6,
        "only three-loop succeeds",
        "server selection failed: no server can still provide o13 to \
         processor 5",
        "ok $91630" );
      ( 9,
        "only random succeeds",
        "ok $81282",
        "server selection failed: no server has bandwidth left to provide \
         o10 to processor 1" );
      ( 2,
        "both fail at selection",
        "server selection failed: no server can still provide o12 to \
         processor 1",
        "server selection failed: no server has bandwidth left to provide \
         o10 to processor 4" );
      ( 10,
        "placement fails",
        "placement failed: no processor can host operators {8}",
        "placement failed: no processor can host operators {8}" );
    ]

(* Downgrade changes only configurations, and the measurement reads none,
   so one measurement serves the downgrade and the check. *)
let test_measure_ignores_configs () =
  List.iter
    (fun seed ->
      let inst = Helpers.instance ~n:60 ~alpha:1.5 ~seed () in
      let g = Insp.Graph.of_app inst.Insp.Instance.app in
      let platform = inst.Insp.Instance.platform in
      List.iter
        (fun h ->
          match Solve.run_graph ~seed h g platform with
          | Error _ -> ()
          | Ok o ->
            let a = o.Solve.alloc in
            let cs =
              Array.make (Alloc.n_procs a) (Catalog.best platform.Platform.catalog)
            in
            Alcotest.(check bool)
              (Printf.sprintf "seed %d %s" seed h.Solve.key)
              true
              (Check.measure g (Alloc.with_configs a cs) = Check.measure g a))
        Solve.all)
    [ 1; 2; 3 ]

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
          Alcotest.test_case "cheapest purchase probes once" `Quick
            test_builder_cheapest_one_probe;
          Alcotest.test_case "sell releases" `Quick test_builder_sell_releases;
          Alcotest.test_case "absorb" `Quick test_builder_absorb;
          Alcotest.test_case "pair-flow rejection" `Quick
            test_builder_rejects_pair_flow;
          Alcotest.test_case "finalize incomplete" `Quick
            test_builder_finalize_incomplete;
          Alcotest.test_case "upgrade variants" `Quick
            test_builder_upgrade_variants;
        ] );
      ( "screen",
          [ Alcotest.test_case "try_add = full probe" `Quick test_try_add_screen ] );
      ( "random",
          [ Alcotest.test_case "Random = list-based pick" `Quick test_random_like_oracle ] );
      ( "failures",
          [ Alcotest.test_case "failure texts" `Quick test_failure_texts ] );
      ( "consolidate",
        [
          Alcotest.test_case "exact fit" `Quick test_consolidate_exact_fit;
          consolidate_tree_equiv;
          consolidate_dag_equiv;
          consolidate_large_equiv;
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
          Alcotest.test_case "repeated state exits the loop" `Quick
            test_repeated_state_exits;
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
          Alcotest.test_case "flat = list oracle" `Quick test_select_like_oracle;
          Alcotest.test_case "ablation outcome classes" `Quick
            test_selection_outcome_classes;
          Alcotest.test_case "measure ignores configurations" `Quick
            test_measure_ignores_configs;
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
