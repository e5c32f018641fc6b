(* The decision journal (DESIGN.md §12): canonical JSON rendering,
   byte-identity of repeated runs (the `journal verify` contract) for
   every heuristic, --jobs independence of Par_sweep-merged journals,
   the first-divergence diff on a seed change (golden), the explain
   chain behind one processor, and the per-category depth bound. *)

module Obs = Insp.Obs
module Journal = Insp.Obs_journal
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
    ]
