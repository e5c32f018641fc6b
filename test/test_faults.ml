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

(* A deployed mapping: the instance, its operator-graph view (what the
   fault layer reads) and the Subtree-bottom-up allocation. *)
let solved ?(n = 20) ?(alpha = 0.9) ~seed () =
  let inst = Helpers.instance ~n ~alpha ~seed () in
  let g = Insp.Graph.of_app inst.Insp.Instance.app in
  match
    Insp.Solve.run_graph ~seed Insp.Solve.sbu g inst.Insp.Instance.platform
  with
  | Ok o -> Some (inst, g, o.Insp.Solve.alloc)
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

(* Burst sizes seen through a crash-only timeline: the crashes of one
   burst share their instant, so each run of equal times is one burst. *)
let burst_sizes ~mean_burst =
  let events =
    Scenario.generate
      (Scenario.make ~seed:1 ~n_events:200 ~mean_burst ~crash_w:1
         ~degrade_w:0 ~outage_w:0 ~jitter_w:0 ~rho_w:0 ())
  in
  let rec runs acc = function
    | [] -> List.rev acc
    | { Scenario.at; _ } :: rest ->
      let rec count n = function
        | { Scenario.at = a; _ } :: more when Float.equal a at ->
          count (n + 1) more
        | more -> (n, more)
      in
      let n, more = count 1 rest in
      runs (n :: acc) more
  in
  runs [] events

let test_burst_size () =
  Alcotest.(check (list int)) "mean 1 is always 1" (List.init 200 (fun _ -> 1))
    (burst_sizes ~mean_burst:1);
  let sizes = burst_sizes ~mean_burst:4 in
  Alcotest.(check int) "one burst per scheduled event" 200 (List.length sizes);
  Alcotest.(check bool) "within [1, 2*mean-1]" true
    (List.for_all (fun b -> b >= 1 && b <= 7) sizes);
  Alcotest.(check bool) "bursts do occur" true
    (List.exists (fun b -> b > 1) sizes);
  Alcotest.check_raises "mean 0 rejected"
    (Invalid_argument "Scenario.make: mean_burst < 1") (fun () ->
      ignore (Scenario.make ~seed:1 ~mean_burst:0 ()))

(* ------------------------------------------------------------------ *)
(* Repair invariants                                                   *)

let test_repair_property =
  Helpers.qtest ~count:40 "single-crash repair is feasible and complete"
    Helpers.instance_case (fun case ->
      let inst = Helpers.instance_of_case case in
      let g = Insp.Graph.of_app inst.Insp.Instance.app in
      match
        Insp.Solve.run_graph ~seed:1 Insp.Solve.sbu g inst.Insp.Instance.platform
      with
      | Error _ -> true (* nothing deployed, nothing to repair *)
      | Ok o ->
        let alloc = o.Insp.Solve.alloc in
        let n = Insp.Alloc.n_procs alloc in
        List.for_all
          (fun victim ->
            match
              Repair.run g inst.Insp.Instance.platform
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
  | Some (inst, g, alloc) ->
    let catalog = inst.Insp.Instance.platform.Insp.Platform.catalog in
    let n = Insp.Alloc.n_procs alloc in
    for victim = 0 to n - 1 do
      match
        Repair.run g inst.Insp.Instance.platform alloc
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
  | Some (inst, g, alloc) ->
    Alcotest.check_raises "out-of-range victim"
      (Invalid_argument "Repair.run: failed processor index out of range")
      (fun () ->
        ignore
          (Repair.run g inst.Insp.Instance.platform alloc
             ~failed:[ Insp.Alloc.n_procs alloc ]))

let test_overload_detected () =
  (* Migration-only repair under sequential crashes must eventually
     report infeasible — never silently degrade below rho. *)
  match solved ~n:60 ~seed:1 () with
  | None -> Alcotest.fail "expected feasible instance"
  | Some (inst, g, alloc) ->
    let n = Insp.Alloc.n_procs alloc in
    let timeline =
      List.init n (fun i ->
          { Scenario.at = float_of_int i;
            fault = Scenario.Proc_crash { victim = 0 } })
    in
    let spec = Engine.make_spec ~allow_rebuy:false ~measure:false () in
    let report =
      Engine.run spec g inst.Insp.Instance.platform alloc
        timeline
    in
    Alcotest.(check bool) "infeasible detected" true
      (report.Engine.infeasible_at <> None)

(* A repair's downtime is 1 s of detection plus 0.5 s per migrated
   operator plus 5 s per rebought processor: crash each processor alone
   and read the one episode.  The victims cover both repair kinds, so
   every term is pinned. *)
let test_crash_downtime () =
  match solved ~seed:2 () with
  | None -> Alcotest.fail "expected feasible instance"
  | Some (inst, g, alloc) ->
    let spec = Engine.make_spec ~measure:false () in
    let episodes =
      List.init (Insp.Alloc.n_procs alloc) (fun victim ->
          let timeline =
            [ { Scenario.at = 10.0; fault = Scenario.Proc_crash { victim } } ]
          in
          match
            (Engine.run spec g inst.Insp.Instance.platform
               alloc timeline)
              .Engine.episodes
          with
          | [ ep ] -> ep
          | eps ->
            Alcotest.failf "victim %d: %d episodes" victim (List.length eps))
    in
    List.iter
      (fun (ep : Engine.episode) ->
        Helpers.alco_float ep.Engine.ep_label
          (1.0
          +. (0.5 *. float_of_int ep.Engine.ep_migrations)
          +. (5.0 *. float_of_int ep.Engine.ep_rebuys))
          ep.Engine.ep_downtime)
      episodes;
    let some p = List.exists p episodes in
    Alcotest.(check bool) "some repair migrates" true
      (some (fun ep -> ep.Engine.ep_migrations > 0));
    Alcotest.(check bool) "some repair rebuys" true
      (some (fun ep -> ep.Engine.ep_rebuys > 0))

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

let survives g platform alloc ~failed =
  Result.is_ok (Repair.run ~allow_rebuy:false g platform alloc ~failed)

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
  | Some (inst, g, alloc) -> (
    match
      Redundancy.harden ~k:1 g inst.Insp.Instance.platform
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
            (survives g inst.Insp.Instance.platform
               hd.Redundancy.alloc ~failed))
        (subsets ~k:1 n);
      Alcotest.(check bool) "cost >= base" true
        (hd.Redundancy.cost >= hd.Redundancy.base_cost -. 1e-6))

let test_frontier_monotone () =
  match solved ~seed:4 () with
  | None -> Alcotest.fail "expected feasible instance"
  | Some (inst, g, alloc) -> (
    match
      Redundancy.frontier ~k_max:1 g
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
  | Some (inst, g, alloc) ->
    let timeline =
      Scenario.generate (Scenario.make ~seed ~n_events:8 ~mean_burst:2 ())
    in
    let spec = Engine.make_spec () in
    Obs.with_sink ~journal:true (fun () ->
        Engine.run spec g inst.Insp.Instance.platform
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
  | Some (inst, g, alloc) ->
    let run ?disruptions () =
      Insp.Runtime.run_graph ?disruptions ~horizon:30.0 g
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

(* The engine's rho shift scales the view's rates: on paper instances,
   the scaled view must read as the view of the application rebuilt at
   the scaled rho, bit for bit in rates, work and output, and the
   checker must give equal verdicts on a deployed mapping. *)
let test_scale_rates_matches_rebuilt_app () =
  let bits a = Array.map Int64.bits_of_float a in
  let checked = ref 0 and violated = ref 0 in
  List.iter
    (fun (n, alpha, seed) ->
      match solved ~n ~alpha ~seed () with
      | None -> ()
      | Some (inst, g, alloc) ->
        let app = inst.Insp.Instance.app
        and platform = inst.Insp.Instance.platform in
        List.iter
          (fun f ->
            let label =
              Printf.sprintf "n=%d alpha=%g seed=%d f=%g" n alpha seed f
            in
            let scaled = Insp.Graph.scale_rates g f in
            let rebuilt =
              Insp.Graph.of_app
                (Insp.App.make
                   ~rho:(Insp.App.rho app *. f)
                   ~base_work:(Insp.App.base_work app)
                   ~work_factor:(Insp.App.work_factor app)
                   ~tree:(Insp.App.tree app) ~objects:(Insp.App.objects app)
                   ~alpha:(Insp.App.alpha app) ())
            in
            let rates v =
              bits (Array.init (Insp.Graph.n_nodes v) (Insp.Graph.rate v))
            in
            Alcotest.(check (array int64)) (label ^ " rates") (rates rebuilt)
              (rates scaled);
            Alcotest.(check (array int64)) (label ^ " work")
              (bits rebuilt.Insp.Graph.work) (bits scaled.Insp.Graph.work);
            Alcotest.(check (array int64)) (label ^ " output")
              (bits rebuilt.Insp.Graph.output) (bits scaled.Insp.Graph.output);
            let verdict = Insp.Check.check_graph scaled platform alloc in
            Alcotest.(check bool) (label ^ " verdict") true
              (Insp.Check.check_graph rebuilt platform alloc = verdict);
            incr checked;
            if verdict <> [] then incr violated)
          [ 0.5; 1.0; 1.7 ])
    (List.concat_map
       (fun n ->
         List.concat_map
           (fun alpha -> List.map (fun seed -> (n, alpha, seed)) [ 1; 2 ])
           [ 0.9; 1.5; 1.7 ])
       [ 20; 60; 100 ]);
  (* Both verdicts occur: the sweep is not vacuous. *)
  Alcotest.(check bool) "some mappings checked" true (!checked > 0);
  Alcotest.(check bool) "some scaled demand violated" true
    (!violated > 0 && !violated < !checked)

(* Fixed timelines against test/fault_journals.golden, each as its JSONL
   journal, episodes and [pp_report]: a crash burst whose repairs rebuy,
   a rho shift that forces a redeploy, measured capacity faults, and
   migration-only crashes until one is irreparable.  The
   golden also pins every single-crash [Repair.run] outcome (migrations,
   rebuys, downgrades, exact cost bits) and a [Redundancy.harden ~k:1]
   summary.  A refactor of the fault layer must leave it unchanged. *)
let test_fault_journals_golden () =
  let buf = Buffer.create (16 * 1024) in
  let at t fault = { Scenario.at = t; fault } in
  let timeline name ~seed ?(n = 20) spec events =
    match solved ~n ~seed () with
    | None -> Printf.bprintf buf "== %s: initial solve failed\n" name
    | Some (inst, g, alloc) ->
      let report, recorder =
        Obs.with_sink ~journal:true (fun () ->
            Engine.run spec g inst.Insp.Instance.platform alloc events)
      in
      Printf.bprintf buf "== %s\n%s" name (Journal.to_jsonl recorder.Obs.journal);
      List.iter
        (fun (ep : Engine.episode) ->
          let opt = function Some x -> Printf.sprintf "%h" x | None -> "-" in
          Printf.bprintf buf
            "episode %s t=%h downtime=%h cost=%h migrations=%d rebuys=%d \
             dip=%s recovery=%s\n"
            ep.Engine.ep_label ep.Engine.ep_t ep.Engine.ep_downtime
            ep.Engine.ep_cost ep.Engine.ep_migrations ep.Engine.ep_rebuys
            (opt ep.Engine.ep_dip) (opt ep.Engine.ep_recovery))
        report.Engine.episodes;
      Printf.bprintf buf "%s\n" (Format.asprintf "%a" Engine.pp_report report)
  in
  let repairs inst g alloc =
    for victim = 0 to Insp.Alloc.n_procs alloc - 1 do
      match
        Repair.run g inst.Insp.Instance.platform alloc ~failed:[ victim ]
      with
      | Error msg -> Printf.bprintf buf "%d error %S\n" victim msg
      | Ok r ->
        Printf.bprintf buf
          "%d migrations=%d rebuys=%d downgrades=%d before=%h after=%h \
           realloc=%h\n"
          victim r.Repair.migrations r.Repair.rebuys r.Repair.downgrades
          r.Repair.cost_before r.Repair.cost_after r.Repair.realloc_cost
    done
  in
  timeline "crash burst" ~seed:2
    (Engine.make_spec ~measure:false ())
    (List.map
       (fun victim -> at 10.0 (Scenario.Proc_crash { victim }))
       [ 0; 3; 5 ]
    @ [ at 20.0 (Scenario.Proc_crash { victim = 1 }) ]);
  timeline "rho redeploy" ~seed:1
    (Engine.make_spec ~measure:false ())
    [
      at 5.0 (Scenario.Rho_demand { factor = 0.5 });
      at 10.0 (Scenario.Rho_demand { factor = 1.7 });
      at 15.0 (Scenario.Proc_crash { victim = 2 });
      at 20.0 (Scenario.Rho_demand { factor = 1.0 });
    ];
  timeline "capacity" ~seed:3 (Engine.make_spec ())
    [
      at 5.0 (Scenario.Link_degrade { a = 0; b = 1; factor = 0.2; duration = 6.0 });
      at 10.0 (Scenario.Server_outage { server = 0; duration = 3.0 });
      at 15.0 (Scenario.Card_jitter { proc = 1; factor = 0.5; duration = 4.0 });
    ];
  timeline "migration-only overload" ~seed:1 ~n:60
    (Engine.make_spec ~allow_rebuy:false ~measure:false ())
    (List.init 8 (fun i ->
         at (float_of_int i) (Scenario.Proc_crash { victim = 0 })));
  (* With a top-of-catalog spare appended, the displaced operators land
     on the spare and the downgrade step shrinks it. *)
  let with_spare inst alloc =
    let best = Insp.Catalog.best inst.Insp.Instance.platform.Insp.Platform.catalog in
    Insp.Alloc.make
      (Array.append (Insp.Alloc.procs alloc)
         [| { Insp.Alloc.config = best; operators = []; downloads = [] } |])
  in
  List.iter
    (fun (name, spare) ->
      match solved ~seed:2 () with
      | None -> Printf.bprintf buf "== %s: initial solve failed\n" name
      | Some (inst, g, alloc) ->
        let alloc = if spare then with_spare inst alloc else alloc in
        Printf.bprintf buf "== %s\n" name;
        repairs inst g alloc)
    [ ("repairs", false); ("repairs with a spare", true) ];
  (match solved ~seed:1 () with
  | None -> Buffer.add_string buf "== harden: initial solve failed\n"
  | Some (inst, g, alloc) -> (
    match
      Redundancy.harden ~k:1 g inst.Insp.Instance.platform alloc
    with
    | Error msg -> Printf.bprintf buf "== harden k=1 error %S\n" msg
    | Ok hd ->
      Printf.bprintf buf "== harden k=%d spares=%d base=%h cost=%h procs=%d\n"
        hd.Redundancy.k hd.Redundancy.spares hd.Redundancy.base_cost
        hd.Redundancy.cost
        (Insp.Alloc.n_procs hd.Redundancy.alloc)));
  Helpers.check_golden ~what:"fault timelines" "fault_journals.golden"
    (Buffer.contents buf)

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
        ] );
      ( "repair",
        [
          test_repair_property;
          Alcotest.test_case "accounting ties" `Quick test_repair_accounting;
          Alcotest.test_case "validation" `Quick test_repair_validation;
          Alcotest.test_case "overload detected" `Quick test_overload_detected;
          Alcotest.test_case "crash downtime" `Quick test_crash_downtime;
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
          Alcotest.test_case "fault journals golden" `Quick
            test_fault_journals_golden;
          Alcotest.test_case "scaled rates match a rebuilt app" `Quick
            test_scale_rates_matches_rebuilt_app;
        ] );
      ( "serve",
        [
          Alcotest.test_case "unknown departure raises" `Quick
            test_unknown_departure_raises;
          Alcotest.test_case "unknown departure journaled" `Quick
            test_unknown_departure_journaled;
        ] );
    ]
