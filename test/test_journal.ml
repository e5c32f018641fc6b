(* The decision journal (DESIGN.md §12): canonical JSON rendering,
   byte-identity of repeated runs (the `journal verify` contract) for
   every heuristic, --jobs independence of Par_sweep-merged journals,
   the first-divergence diff on a seed change (golden), the explain
   chain behind one processor, the per-category depth bound, and that
   every decision counter equals the number of journaled events of the
   decisions that bump it. *)

module Obs = Insp.Obs
module Journal = Insp.Obs_journal
module Metrics = Insp.Obs_metrics
module Jsonc = Insp.Obs_jsonc

let jsonl ?depth f =
  let _, r = Obs.with_sink ~journal:true ?journal_depth:depth f in
  Journal.to_jsonl r.Obs.journal

let solve_heuristic key ~n ~seed () =
  let inst = Helpers.instance ~n ~seed () in
  match Insp.Solve.find key with
  | None -> Alcotest.fail ("unknown heuristic " ^ key)
  | Some h ->
    ignore
      (Insp.Solve.run ~seed h inst.Insp.Instance.app
         inst.Insp.Instance.platform)

(* ------------------------------------------------------------------ *)
(* Canonical JSON fragments                                            *)

let test_jsonc_floats () =
  let check = Alcotest.(check string) in
  check "integer-valued float" "2" (Jsonc.float 2.0);
  check "negative integer-valued" "-14" (Jsonc.float (-14.0));
  check "plain fraction" "1.5" (Jsonc.float 1.5);
  check "repeating fraction" "0.1" (Jsonc.float 0.1);
  check "nan tagged" "\"nan\"" (Jsonc.float Float.nan);
  check "inf tagged" "\"inf\"" (Jsonc.float Float.infinity);
  check "-inf tagged" "\"-inf\"" (Jsonc.float Float.neg_infinity)

let test_jsonc_float_roundtrip =
  Helpers.qtest ~count:500 "Jsonc.float round-trips bit-exactly"
    QCheck.(pair (float_range (-1e9) 1e9) (int_range 1 1000))
    (fun (x, d) ->
      let v = x /. float_of_int d in
      let rendered = Jsonc.float v in
      let back =
        (* Tagged non-finite renderings are strings; unquote them. *)
        if String.length rendered > 0 && rendered.[0] = '"' then
          Float.nan
        else float_of_string rendered
      in
      Float.is_nan v
      || Int64.equal (Int64.bits_of_float back) (Int64.bits_of_float v))

let test_event_json_golden () =
  let check = Alcotest.(check string) in
  check "probe with reject"
    {|{"ev":"probe","kind":"host","ops":[3,4],"ok":false,"reject":"demand"}|}
    (Journal.event_to_json
       (Journal.Probe
          {
            kind = Journal.Host;
            ops = [ 3; 4 ];
            ok = false;
            reject = Some Journal.Demand_exceeded;
          }));
  check "acquire"
    {|{"ev":"acquire","gid":7,"config":"cpu46880/nic2500","members":[1,2]}|}
    (Journal.event_to_json
       (Journal.Acquire
          { gid = 7; config = "cpu46880/nic2500"; members = [ 1; 2 ] }));
  check "outcome with proc map"
    {|{"ev":"outcome","heuristic":"sbu","status":"feasible","cost":22644,"procs":2,"groups":[[0,0],[1,3]]}|}
    (Journal.event_to_json
       (Journal.Outcome
          {
            heuristic = "sbu";
            status = "feasible";
            cost = Some 22644.0;
            n_procs = Some 2;
            procs = [ (0, 0); (1, 3) ];
          }));
  check "phase escapes like any string"
    {|{"ev":"phase","heuristic":"msg","stage":"a \"b\"\\c"}|}
    (Journal.event_to_json
       (Journal.Phase { heuristic = "msg"; stage = {|a "b"\c|} }));
  check "manifest field order"
    {|{"ev":"manifest","seed":7,"config":"fnv1a:00ff","heuristic":"sbu","args":{"n":"12"}}|}
    (let j = Journal.create () in
     Journal.set_manifest j
       {
         Journal.m_seed = 7;
         m_config_hash = "fnv1a:00ff";
         m_heuristic = "sbu";
         m_args = [ ("n", "12") ];
       };
     String.trim (Journal.to_jsonl j))

(* ------------------------------------------------------------------ *)
(* Byte-identity: the `journal verify` contract                         *)

(* Two in-process runs of the same deterministic pipeline must serialize
   to the very same bytes — for every heuristic, on both example
   scenarios.  This is the in-tree version of `insp journal verify`,
   wired into dune runtest as required. *)
let test_verify_all_heuristics () =
  List.iter
    (fun (n, seed) ->
      List.iter
        (fun (h : Insp.Solve.heuristic) ->
          let run () = jsonl (solve_heuristic h.Insp.Solve.key ~n ~seed) in
          let a = run () and b = run () in
          Alcotest.(check bool)
            (Printf.sprintf "%s n=%d seed=%d journals non-empty"
               h.Insp.Solve.key n seed)
            true
            (String.length a > 0);
          Alcotest.(check string)
            (Printf.sprintf "%s n=%d seed=%d byte-identical"
               h.Insp.Solve.key n seed)
            a b)
        Insp.Solve.all)
    [ (12, 2); (20, 1) ]

(* ------------------------------------------------------------------ *)
(* Par_sweep merge: --jobs independence                                 *)

let sweep_jsonl jobs =
  jsonl (fun () ->
      ignore
        (Insp.Par_sweep.with_jobs jobs (fun () ->
             Insp.Par_sweep.map
               (fun seed -> solve_heuristic "sbu" ~n:12 ~seed ())
               [ 1; 2; 3; 4; 5; 6 ])))

let test_jobs_independent () =
  let sequential = sweep_jsonl 1 in
  Alcotest.(check bool) "merged journal non-empty" true
    (String.length sequential > 0);
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "--jobs %d merged journal byte-identical" jobs)
        sequential (sweep_jsonl jobs))
    [ 2; 4 ]

(* A cell journal merged in canonical order keeps every cell's events
   contiguous and in cell order. *)
let test_merge_order () =
  let a = Journal.create () in
  Journal.enable a;
  Journal.record a (Journal.Phase { heuristic = "cell"; stage = "0" });
  let b = Journal.create () in
  Journal.enable b;
  Journal.record b (Journal.Phase { heuristic = "cell"; stage = "1" });
  Journal.record b (Journal.Phase { heuristic = "cell"; stage = "1b" });
  Journal.merge ~into:a b;
  Alcotest.(check (list string))
    "events appended in order" [ "0"; "1"; "1b" ]
    (List.map
       (function
         | Journal.Phase { stage; _ } -> stage
         | _ -> Alcotest.fail "unexpected event")
       (Journal.events a));
  Alcotest.(check int) "length merged" 3 (Journal.length a)

(* ------------------------------------------------------------------ *)
(* Diff: first divergent decision on a seed change (golden)             *)

let test_diff_seed_divergence () =
  (* No manifest here, so the first differing line is a real decision
     event, not the seed header: the "why did this seed cost more"
     answer. *)
  let run seed = jsonl (solve_heuristic "sbu" ~n:12 ~seed) in
  let a = run 2 and b = run 3 in
  match Journal.diff a b with
  | None -> Alcotest.fail "seeds 2 and 3 produced identical journals"
  | Some d ->
    Alcotest.(check int) "diverges at line 2" 2 d.Journal.div_line;
    Alcotest.(check (list string))
      "context is the common prefix"
      [ {|{"ev":"phase","heuristic":"sbu","stage":"placement"}|} ]
      d.Journal.div_context;
    Alcotest.(check (option string))
      "seed-2 side: first host probe targets operator 6"
      (Some {|{"ev":"probe","kind":"host","ops":[6],"ok":true}|})
      d.Journal.div_left;
    Alcotest.(check (option string))
      "seed-3 side: first host probe targets operator 9"
      (Some {|{"ev":"probe","kind":"host","ops":[9],"ok":true}|})
      d.Journal.div_right

let test_diff_identical_and_prefix () =
  Alcotest.(check bool) "identical -> None" true
    (Journal.diff "a\nb\n" "a\nb\n" = None);
  (match Journal.diff "a\nb\nc\n" "a\nb\n" with
  | Some { Journal.div_line = 3; div_left = Some "c"; div_right = None; _ } ->
    ()
  | _ -> Alcotest.fail "prefix truncation not reported");
  match Journal.diff ~context:1 "a\nb\nX\n" "a\nb\nY\n" with
  | Some { Journal.div_context = [ "b" ]; _ } -> ()
  | _ -> Alcotest.fail "context width not honoured"

(* ------------------------------------------------------------------ *)
(* Explain                                                              *)

let explain_events ~proc =
  let inst = Helpers.instance ~n:12 ~seed:2 () in
  let h =
    match Insp.Solve.find "sbu" with
    | Some h -> h
    | None -> Alcotest.fail "sbu heuristic missing"
  in
  let _, r =
    Obs.with_sink ~journal:true (fun () ->
        ignore
          (Insp.Solve.run ~seed:2 h inst.Insp.Instance.app
             inst.Insp.Instance.platform))
  in
  Journal.explain ~proc (Journal.events r.Obs.journal)

let test_explain_chain () =
  let chain = explain_events ~proc:0 in
  Alcotest.(check bool) "chain non-empty" true (chain <> []);
  (match chain with
  | Journal.Acquire { gid = 0; _ } :: _ -> ()
  | _ -> Alcotest.fail "chain should open with the group's acquisition");
  let outcomes =
    List.filter (function Journal.Outcome _ -> true | _ -> false) chain
  in
  Alcotest.(check int) "exactly one outcome" 1 (List.length outcomes);
  (* Every merge in the chain involves a tracked group, and the chain
     includes the events of groups absorbed into processor 0's group. *)
  Alcotest.(check bool) "chain records at least one merge" true
    (List.exists
       (function Journal.Merge_groups _ -> true | _ -> false)
       chain)

let test_explain_out_of_range () =
  Alcotest.(check bool) "unknown processor -> empty" true
    (explain_events ~proc:999 = [])

(* ------------------------------------------------------------------ *)
(* Depth bound                                                          *)

let test_depth_bound () =
  let depth = 5 in
  let inst = Helpers.instance ~n:12 ~seed:2 () in
  let h =
    match Insp.Solve.find "sbu" with
    | Some h -> h
    | None -> Alcotest.fail "sbu heuristic missing"
  in
  let _, r =
    Obs.with_sink ~journal:true ~journal_depth:depth (fun () ->
        match
          Insp.Solve.run ~seed:2 h inst.Insp.Instance.app
            inst.Insp.Instance.platform
        with
        | Error _ -> Alcotest.fail "expected a feasible mapping"
        | Ok o ->
          ignore
            (Insp.simulate ~horizon:10.0 inst o.Insp.Solve.alloc))
  in
  let events = Journal.events r.Obs.journal in
  let sim_events =
    List.filter
      (function
        | Journal.Sim_dispatch _ | Journal.Sim_flow_start _
        | Journal.Sim_flow_done _ ->
          true
        | _ -> false)
      events
  in
  Alcotest.(check int) "sim events capped at depth" depth
    (List.length sim_events);
  Alcotest.(check int) "exactly one truncation marker" 1
    (List.length
       (List.filter
          (function
            | Journal.Truncated { category } -> category = "sim"
            | _ -> false)
          events))

(* ------------------------------------------------------------------ *)
(* Counters equal the journal                                          *)

(* The decision behind each event.  The match is total with no
   wildcard, so a new event has to say here whether it is a counted
   decision. *)
let decision_of : Journal.event -> Journal.decision option = function
  | Journal.Probe { ok; _ } ->
    Some (if ok then Journal.Probe_ok else Journal.Probe_rejected)
  | Acquire _ -> Some Acquired
  | Add_op _ -> Some Added
  | Reject_add _ -> Some Add_rejected
  | Merge_groups _ -> Some Merged
  | Reject_merge _ -> Some Merge_rejected
  | Sell _ -> Some Sold
  | Downgrade_stuck _ -> Some Stuck
  | Outcome { status; _ } ->
    Some (if status = "feasible" then Journal.Solved else Journal.Solve_failed)
  | Fault_crash _ -> Some Crashed
  | Fault_rho _ -> Some Rho_shifted
  | Fault_capacity _ -> Some Capacity_changed
  | Serve_arrival _ -> Some Arrived
  | Serve_admit _ -> Some Admitted
  | Serve_reject { reason; _ } -> (
    match reason with
    | "placement" -> Some Rejected_placement
    | "proc_budget" -> Some Rejected_proc_budget
    | "ledger" -> Some Rejected_ledger
    | other -> Alcotest.failf "unknown serve reject reason %S" other)
  | Serve_depart _ -> Some Departed
  | Serve_unknown_depart _ -> Some Departed_unknown
  | Phase _ | Download _ | Download_failed _ | Downgrade _ | Exact_incumbent _
  | Sim_dispatch _ | Sim_flow_start _ | Sim_flow_done _ | Repair_migrate _
  | Repair_rebuy _ | Repair_done _ | Repair_infeasible _ | Truncated _ ->
    None

let all_decisions =
  Journal.
    [
      Probe_ok; Probe_rejected; Acquired; Added; Add_rejected; Merged;
      Merge_rejected; Sold; Stuck; Solved; Solve_failed; Crashed; Rho_shifted;
      Capacity_changed; Arrived; Admitted; Rejected_placement;
      Rejected_proc_budget; Rejected_ledger; Departed; Departed_unknown;
    ]

(* For each counter some decision bumps (restricted to names starting
   with one of [prefixes]), the run's metric equals the number of its
   journaled events whose decision lists that counter. *)
let check_counters_equal_journal ~what ?(prefixes = [ "" ]) (r : Obs.t) =
  let from_journal = Hashtbl.create 32 in
  List.iter
    (fun ev ->
      match decision_of ev with
      | None -> ()
      | Some d ->
        List.iter
          (fun name ->
            let n = Hashtbl.find_opt from_journal name in
            Hashtbl.replace from_journal name (Option.value ~default:0 n + 1))
          (Journal.counters d))
    (Journal.events r.Obs.journal);
  Alcotest.(check bool) (what ^ ": decisions journaled") true
    (Hashtbl.length from_journal > 0);
  let names =
    List.sort_uniq compare (List.concat_map Journal.counters all_decisions)
  in
  List.iter
    (fun name ->
      if List.exists (fun prefix -> String.starts_with ~prefix name) prefixes
      then
        Alcotest.(check int)
          (Printf.sprintf "%s: %s" what name)
          (Option.value ~default:0 (Hashtbl.find_opt from_journal name))
          (Option.value ~default:0 (Metrics.counter r.Obs.metrics name)))
    names

let journaled f = snd (Obs.with_sink ~journal:true f)

let test_counters_solve () =
  let r =
    journaled (fun () ->
        List.iter
          (fun (n, alpha, seed) ->
            let inst = Helpers.instance ~n ~alpha ~seed () in
            ignore
              (Insp.Solve.run_all ~seed inst.Insp.Instance.app
                 inst.Insp.Instance.platform))
          (List.concat_map
             (fun n ->
               List.concat_map
                 (fun alpha -> List.init 5 (fun s -> (n, alpha, s + 1)))
                 [ 0.9; 1.7 ])
             [ 20; 40; 60 ]))
  in
  check_counters_equal_journal ~what:"30 paper instances" r

let test_counters_dag () =
  let r =
    journaled (fun () ->
        for seed = 0 to 9 do
          let apps, platform =
            Insp.Multi_workload.instance ~seed ~n_apps:(2 + (seed mod 4))
              ~n_operators:30
          in
          ignore (Insp.Dag_place.run (Insp.Cse.share_apps apps) platform)
        done)
  in
  check_counters_equal_journal ~what:"10 CSE sets" r

(* Serve and faults run their solves under journal-suppressed sinks whose
   metrics still merge up, so only their own counters are compared. *)
let test_counters_serve_faults () =
  let serve =
    journaled (fun () ->
        let params =
          Insp.Serve.make_params
            ~base:(Insp.Config.make ~n_operators:60 ~seed:3 ())
            ~proc_budget:48 ~card_scale:0.08 ~reoptimize:true ()
        in
        ignore
          (Insp.Serve.run params
             (Insp.Serve_stream.events
                (Insp.Serve_stream.make ~n_apps:60 ~seed:3 ()))))
  in
  check_counters_equal_journal ~what:"serve" ~prefixes:[ "serve." ] serve;
  let faults =
    journaled (fun () ->
        List.iter
          (fun seed ->
            let inst = Helpers.instance ~n:20 ~seed () in
            let g = Insp.Graph.of_app inst.Insp.Instance.app
            and platform = inst.Insp.Instance.platform in
            match Insp.Solve.run_graph ~seed Insp.Solve.sbu g platform with
            | Error _ -> ()
            | Ok o ->
              ignore
                (Insp.Fault_engine.run
                   (Insp.Fault_engine.make_spec ~measure:false ())
                   g platform o.Insp.Solve.alloc
                   (Insp.Fault_scenario.generate
                      (Insp.Fault_scenario.make ~seed ~n_events:10
                         ~mean_burst:2 ()))))
          [ 1; 2; 3 ])
  in
  check_counters_equal_journal ~what:"faults" ~prefixes:[ "faults." ] faults

let () =
  Alcotest.run "journal"
    [
      ( "jsonc",
        [
          Alcotest.test_case "canonical floats" `Quick test_jsonc_floats;
          test_jsonc_float_roundtrip;
          Alcotest.test_case "event JSON goldens" `Quick test_event_json_golden;
        ] );
      ( "verify",
        [
          Alcotest.test_case "byte-identical journals, all heuristics" `Quick
            test_verify_all_heuristics;
          Alcotest.test_case "--jobs independent merged journal" `Quick
            test_jobs_independent;
          Alcotest.test_case "merge order" `Quick test_merge_order;
        ] );
      ( "diff",
        [
          Alcotest.test_case "first divergence on a seed change" `Quick
            test_diff_seed_divergence;
          Alcotest.test_case "identical / prefix / context" `Quick
            test_diff_identical_and_prefix;
        ] );
      ( "explain",
        [
          Alcotest.test_case "decision chain of processor 0" `Quick
            test_explain_chain;
          Alcotest.test_case "out of range" `Quick test_explain_out_of_range;
        ] );
      ( "depth",
        [ Alcotest.test_case "per-category bound" `Quick test_depth_bound ] );
      ( "counters",
        [
          Alcotest.test_case "30 paper instances" `Quick test_counters_solve;
          Alcotest.test_case "10 CSE sets" `Quick test_counters_dag;
          Alcotest.test_case "serve and faults" `Quick
            test_counters_serve_faults;
        ] );
    ]
