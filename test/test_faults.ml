(* Fault injection, repair and redundancy (DESIGN.md §15): scenario
   determinism, the repair invariants (repaired mappings are
   checker-feasible, every displaced operator is placed exactly once,
   cost accounting ties), K-failure redundancy, byte-identical fault
   journals, infeasibility detection on overloaded post-crash
   platforms, and serve's malformed-stream handling. *)

module Scenario = Insp.Fault_scenario
module Engine = Insp.Fault_engine
module Repair = Insp.Fault_repair
module Redundancy = Insp.Redundancy
module Serve = Insp.Serve
module Stream = Insp.Serve_stream
module Obs = Insp.Obs
module Journal = Insp.Obs_journal

let sbu =
  match Insp.Solve.find "sbu" with
  | Some h -> h
  | None -> Alcotest.fail "sbu heuristic missing"

let solved ?(n = 20) ?(alpha = 0.9) ~seed () =
  let inst = Helpers.instance ~n ~alpha ~seed () in
  match
    Insp.Solve.run ~seed sbu inst.Insp.Instance.app inst.Insp.Instance.platform
  with
  | Ok o -> Some (inst, o.Insp.Solve.alloc)
  | Error _ -> None

(* ------------------------------------------------------------------ *)
(* Scenario generator                                                  *)

let test_scenario_deterministic () =
  let spec = Scenario.make ~seed:7 ~n_events:40 ~mean_burst:3 () in
  let a = Scenario.generate spec in
  let b = Scenario.generate spec in
  Alcotest.(check bool) "equal timelines" true (a = b);
  let c = Scenario.generate (Scenario.make ~seed:8 ~n_events:40 ~mean_burst:3 ()) in
  Alcotest.(check bool) "seed-sensitive" true (a <> c)

let test_scenario_sorted () =
  let events = Scenario.generate (Scenario.make ~seed:3 ~n_events:50 ~mean_burst:2 ()) in
  let rec ascending = function
    | { Scenario.at = a; _ } :: ({ Scenario.at = b; _ } :: _ as rest) ->
      a <= b && ascending rest
    | _ -> true
  in
  Alcotest.(check bool) "times ascending" true (ascending events);
  Alcotest.(check bool) "non-empty" true (events <> [])

let test_burst_size () =
  let rng = Insp.Prng.create 1 in
  for _ = 1 to 200 do
    Alcotest.(check int) "mean 1 is always 1" 1 (Stream.burst_size rng ~mean:1)
  done;
  for _ = 1 to 200 do
    let b = Stream.burst_size rng ~mean:4 in
    Alcotest.(check bool) "within [1, 2*mean-1]" true (b >= 1 && b <= 7)
  done;
  Alcotest.check_raises "mean 0 rejected"
    (Invalid_argument "Stream.burst_size: mean < 1") (fun () ->
      ignore (Stream.burst_size rng ~mean:0))

let test_stream_burst_spec_compatible () =
  (* mean_burst = 1 must leave the legacy arrival stream untouched. *)
  let plain = Stream.events (Stream.make ~n_apps:60 ~seed:5 ()) in
  let burst1 = Stream.events (Stream.make ~n_apps:60 ~seed:5 ~mean_burst:1 ()) in
  Alcotest.(check bool) "byte-identical event stream" true (plain = burst1);
  let bursty = Stream.events (Stream.make ~n_apps:60 ~seed:5 ~mean_burst:4 ()) in
  Alcotest.(check bool) "bursty stream differs" true (plain <> bursty)

(* ------------------------------------------------------------------ *)
(* Repair invariants                                                   *)

let test_repair_property =
  Helpers.qtest ~count:40 "single-crash repair is feasible and complete"
    Helpers.instance_case (fun case ->
      let inst = Helpers.instance_of_case case in
      match
        Insp.Solve.run ~seed:1 sbu inst.Insp.Instance.app
          inst.Insp.Instance.platform
      with
      | Error _ -> true (* nothing deployed, nothing to repair *)
      | Ok o ->
        let alloc = o.Insp.Solve.alloc in
        let n = Insp.Alloc.n_procs alloc in
        List.for_all
          (fun victim ->
            match
              Repair.run inst.Insp.Instance.app inst.Insp.Instance.platform
                alloc ~failed:[ victim ]
            with
            | Error _ ->
              (* an honest infeasibility verdict is acceptable; silent
                 degradation is not — tested via the checker below *)
              true
            | Ok r ->
              let displaced =
                List.length (Insp.Alloc.operators_of alloc victim)
              in
              Helpers.check_feasible inst r.Repair.alloc = []
              && r.Repair.migrations + r.Repair.rebuys = displaced)
          (List.init n Fun.id))

let test_repair_accounting () =
  match solved ~seed:2 () with
  | None -> Alcotest.fail "expected feasible instance"
  | Some (inst, alloc) ->
    let catalog = inst.Insp.Instance.platform.Insp.Platform.catalog in
    let n = Insp.Alloc.n_procs alloc in
    for victim = 0 to n - 1 do
      match
        Repair.run inst.Insp.Instance.app inst.Insp.Instance.platform alloc
          ~failed:[ victim ]
      with
      | Error _ -> ()
      | Ok r ->
        Helpers.alco_float ~eps:1e-6 "cost_after ties"
          (Insp.Cost.of_alloc catalog r.Repair.alloc)
          r.Repair.cost_after;
        let failed_cost = (Insp.Cost.per_proc catalog alloc).(victim) in
        Helpers.alco_float ~eps:1e-6 "realloc_cost ties"
          (r.Repair.cost_after -. (r.Repair.cost_before -. failed_cost))
          r.Repair.realloc_cost
    done

let test_repair_validation () =
  match solved ~seed:2 () with
  | None -> Alcotest.fail "expected feasible instance"
  | Some (inst, alloc) ->
    Alcotest.check_raises "out-of-range victim"
      (Invalid_argument "Repair.run: failed processor index out of range")
      (fun () ->
        ignore
          (Repair.run inst.Insp.Instance.app inst.Insp.Instance.platform alloc
             ~failed:[ Insp.Alloc.n_procs alloc ]))

let test_overload_detected () =
  (* Migration-only repair under sequential crashes must eventually
     report infeasible — never silently degrade below rho. *)
  match solved ~n:60 ~seed:1 () with
  | None -> Alcotest.fail "expected feasible instance"
  | Some (inst, alloc) ->
    let n = Insp.Alloc.n_procs alloc in
    let timeline =
      List.init n (fun i ->
          { Scenario.at = float_of_int i;
            fault = Scenario.Proc_crash { victim = 0 } })
    in
    let spec = Engine.make_spec ~allow_rebuy:false ~measure:false () in
    let report =
      Engine.run spec inst.Insp.Instance.app inst.Insp.Instance.platform alloc
        timeline
    in
    Alcotest.(check bool) "infeasible detected" true
      (report.Engine.infeasible_at <> None)

(* ------------------------------------------------------------------ *)
(* Redundancy                                                          *)

(* The resilience oracle: every k-subset of processors, and whether
   migration-only repair survives its failure. *)
let subsets ~k n =
  let rec go lo k =
    if k = 0 then [ [] ]
    else if lo >= n then []
    else List.map (fun s -> lo :: s) (go (lo + 1) (k - 1)) @ go (lo + 1) k
  in
  go 0 k

let survives app platform alloc ~failed =
  Result.is_ok (Repair.run ~allow_rebuy:false app platform alloc ~failed)

let test_subsets () =
  Alcotest.(check int) "C(5,2)" 10 (List.length (subsets ~k:2 5));
  Alcotest.(check int) "C(4,0)" 1 (List.length (subsets ~k:0 4));
  Alcotest.(check int) "C(3,4)" 0 (List.length (subsets ~k:4 3));
  List.iter
    (fun s -> Alcotest.(check int) "subset size" 2 (List.length s))
    (subsets ~k:2 5)

let test_harden_k1_survives_all () =
  match solved ~seed:1 () with
  | None -> Alcotest.fail "expected feasible instance"
  | Some (inst, alloc) -> (
    match
      Redundancy.harden ~k:1 inst.Insp.Instance.app inst.Insp.Instance.platform
        alloc
    with
    | Error msg -> Alcotest.fail ("harden failed: " ^ msg)
    | Ok hd ->
      let n = Insp.Alloc.n_procs hd.Redundancy.alloc in
      List.iter
        (fun failed ->
          Alcotest.(check bool)
            (Printf.sprintf "survives crash of procs %s"
               (String.concat "," (List.map string_of_int failed)))
            true
            (survives inst.Insp.Instance.app inst.Insp.Instance.platform
               hd.Redundancy.alloc ~failed))
        (subsets ~k:1 n);
      Alcotest.(check bool) "cost >= base" true
        (hd.Redundancy.cost >= hd.Redundancy.base_cost -. 1e-6))

let test_frontier_monotone () =
  match solved ~seed:4 () with
  | None -> Alcotest.fail "expected feasible instance"
  | Some (inst, alloc) -> (
    match
      Redundancy.frontier ~k_max:1 inst.Insp.Instance.app
        inst.Insp.Instance.platform alloc
    with
    | [ (0, Ok h0); (1, Ok h1) ] ->
      Alcotest.(check int) "k=0 buys nothing" 0 h0.Redundancy.spares;
      Alcotest.(check bool) "k=1 at least as expensive" true
        (h1.Redundancy.cost >= h0.Redundancy.cost -. 1e-6)
    | _ -> Alcotest.fail "expected Ok frontier at K=0 and K=1")

(* ------------------------------------------------------------------ *)
(* Engine determinism                                                  *)

let engine_run ~seed () =
  match solved ~seed () with
  | None -> Alcotest.fail "expected feasible instance"
  | Some (inst, alloc) ->
    let timeline =
      Scenario.generate (Scenario.make ~seed ~n_events:8 ~mean_burst:2 ())
    in
    let spec = Engine.make_spec () in
    Obs.with_sink ~journal:true (fun () ->
        Engine.run spec inst.Insp.Instance.app inst.Insp.Instance.platform
          alloc timeline)

let test_engine_journal_byte_identity () =
  let r1, rec1 = engine_run ~seed:1 () in
  let r2, rec2 = engine_run ~seed:1 () in
  Alcotest.(check bool) "equal reports" true (r1 = r2);
  let j1 = Journal.to_jsonl rec1.Obs.journal and j2 = Journal.to_jsonl rec2.Obs.journal in
  Alcotest.(check bool) "journals non-trivial" true
    (Journal.length rec1.Obs.journal > 0);
  Alcotest.(check string) "byte-identical journals" j1 j2;
  let _, rec3 = engine_run ~seed:2 () in
  Alcotest.(check bool) "seed-sensitive journal" true
    (Journal.to_jsonl rec3.Obs.journal <> j1)

let test_runtime_disruption_baseline () =
  match solved ~seed:3 () with
  | None -> Alcotest.fail "expected feasible instance"
  | Some (inst, alloc) ->
    let run ?disruptions () =
      Insp.Runtime.run ?disruptions ~horizon:30.0 inst.Insp.Instance.app
        inst.Insp.Instance.platform alloc
    in
    let base = run () in
    let empty = run ~disruptions:[] () in
    Alcotest.(check bool) "empty disruption list is bit-identical" true
      (base = empty);
    let hit =
      run
        ~disruptions:
          [
            { Insp.Runtime.d_scope = Insp.Runtime.Proc_card 0; d_from = 5.0;
              d_until = 15.0; d_factor = 0.05 };
          ]
        ()
    in
    Alcotest.(check bool) "disrupted run completes no more results" true
      (hit.Insp.Runtime.results_completed
      <= base.Insp.Runtime.results_completed);
    Alcotest.(check bool) "root completions recorded" true
      (Array.length base.Insp.Runtime.root_completions
      = base.Insp.Runtime.results_completed)

(* ------------------------------------------------------------------ *)
(* Serve: unknown departures                                          *)

let serve_state () =
  let params =
    Serve.make_params
      ~base:(Insp.Config.make ~n_operators:60 ~seed:3 ())
      ~proc_budget:48 ~card_scale:0.08 ()
  in
  let events = Stream.events (Stream.make ~n_apps:40 ~seed:3 ()) in
  (* keep some applications live: drop the tail departures *)
  let arrivals_only =
    List.filteri (fun i _ -> i < 60) events
  in
  Serve.run params arrivals_only

let test_unknown_departure_raises () =
  let t = serve_state () in
  Alcotest.check_raises "never-seen app id"
    (Serve.Unknown_departure { app = 987654; t = 1 }) (fun () ->
      Serve.handle t (Stream.Departure { app = 987654; t = 1 }))

let test_unknown_departure_journaled () =
  let (), recorder =
    Obs.with_sink ~journal:true (fun () ->
        let t = serve_state () in
        match Serve.handle t (Stream.Departure { app = 987654; t = 1 }) with
        | () -> Alcotest.fail "expected Unknown_departure"
        | exception Serve.Unknown_departure _ -> ())
  in
  let jsonl = Journal.to_jsonl recorder.Obs.journal in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "journaled" true
    (contains jsonl "serve_unknown_depart")

let () =
  Alcotest.run "faults"
    [
      ( "scenario",
        [
          Alcotest.test_case "deterministic" `Quick test_scenario_deterministic;
          Alcotest.test_case "sorted" `Quick test_scenario_sorted;
          Alcotest.test_case "burst size" `Quick test_burst_size;
          Alcotest.test_case "stream burst compatibility" `Quick
            test_stream_burst_spec_compatible;
        ] );
      ( "repair",
        [
          test_repair_property;
          Alcotest.test_case "accounting ties" `Quick test_repair_accounting;
          Alcotest.test_case "validation" `Quick test_repair_validation;
          Alcotest.test_case "overload detected" `Quick test_overload_detected;
        ] );
      ( "redundancy",
        [
          Alcotest.test_case "subsets" `Quick test_subsets;
          Alcotest.test_case "K=1 survives every crash" `Quick
            test_harden_k1_survives_all;
          Alcotest.test_case "frontier monotone" `Quick test_frontier_monotone;
        ] );
      ( "engine",
        [
          Alcotest.test_case "journal byte-identity" `Quick
            test_engine_journal_byte_identity;
          Alcotest.test_case "runtime disruption baseline" `Quick
            test_runtime_disruption_baseline;
        ] );
      ( "serve",
        [
          Alcotest.test_case "unknown departure raises" `Quick
            test_unknown_departure_raises;
          Alcotest.test_case "unknown departure journaled" `Quick
            test_unknown_departure_journaled;
        ] );
    ]
