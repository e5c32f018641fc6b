(* Tests for the insp_obs observability layer: registry and frame-tree
   determinism under interleaved spans, the tree's time columns,
   histogram bucket edges, exporter well-formedness (Chrome trace JSON
   and its bounded ring, metrics CSV), and counter and allocation
   regressions pinning the solver's feasibility probes. *)

module Obs = Insp.Obs
module Metrics = Insp.Obs_metrics
module Prof = Insp.Obs_prof
module Export = Insp.Obs_export

(* A deterministic instrumented workload mixing nested spans, marks,
   counters, gauges and histograms. *)
let workload () =
  Obs.span "outer" (fun () ->
      for i = 1 to 5 do
        Obs.incr "n";
        Obs.span "inner" (fun () ->
            Obs.observe "h" (float_of_int (3 * i));
            Obs.mark "tick")
      done;
      Obs.span "tail" (fun () -> Obs.incr ~by:4 "n"));
  Obs.gauge "g" 2.5

(* The deterministic projection of a sink's frame tree: one line per
   row (path, depth, count, kind), in row order. *)
let tree_rows (r : Obs.t) =
  List.map
    (fun (row : Prof.row) ->
      Printf.sprintf "%s d%d x%d%s" row.Prof.path row.Prof.depth
        row.Prof.count
        (match row.Prof.kind with
        | Prof.Mark -> " mark"
        | Prof.Fine -> " fine"
        | Prof.Span -> ""))
    (Prof.rows r.Obs.prof)

(* ------------------------------------------------------------------ *)
(* Facade guarding                                                     *)

let test_disabled_noop () =
  Alcotest.(check bool) "no sink" false (Obs.enabled ());
  (* With no sink installed the guarded calls must be inert no-ops. *)
  Obs.incr "x";
  Obs.gauge "y" 1.0;
  Obs.observe "z" 2.0;
  Obs.mark "m";
  Alcotest.(check int) "span passes through" 7 (Obs.span "s" (fun () -> 7));
  Alcotest.(check bool) "still no sink" false (Obs.enabled ())

let test_with_sink_restores () =
  let value, r = Obs.with_sink (fun () -> Obs.incr "c"; 11) in
  Alcotest.(check int) "result" 11 value;
  Alcotest.(check (option int)) "recorded" (Some 1)
    (Metrics.counter r.Obs.metrics "c");
  Alcotest.(check bool) "uninstalled after" false (Obs.enabled ())

let test_span_exception_safe () =
  let value, r =
    Obs.with_sink (fun () ->
        try Obs.span "boom" (fun () -> failwith "x") with Failure _ -> 42)
  in
  Alcotest.(check int) "exception propagated" 42 value;
  Alcotest.(check int) "frame closed" 0 (Prof.depth r.Obs.prof);
  Alcotest.(check (list string)) "span recorded" [ "boom d1 x1" ] (tree_rows r)

(* ------------------------------------------------------------------ *)
(* Registry determinism                                                *)

let test_registry_deterministic () =
  let (), a = Obs.with_sink workload in
  let (), b = Obs.with_sink workload in
  (* Recorded values and structure are byte-identical across runs; only
     timestamps (not exported by metrics_csv/paths) may differ. *)
  Alcotest.(check string) "identical CSV" (Export.metrics_csv a)
    (Export.metrics_csv b);
  Alcotest.(check (list string)) "identical tree rows" (tree_rows a)
    (tree_rows b);
  (* One row per path, in first-enter order: parents precede children,
     and a mark is a counted row of its own. *)
  Alcotest.(check (list string))
    "tree structure"
    [
      "outer d1 x1"; "outer/inner d2 x5"; "outer/inner/tick d3 x5 mark";
      "outer/tail d2 x1";
    ]
    (tree_rows a);
  Alcotest.(check int) "no frame left open" 0 (Prof.depth a.Obs.prof)

(* Time is a tree column: on a nested workload every span's cumulative
   time is its self time plus the cumulative time of its nearest timed
   descendants — fine frames pass their children's time through, and
   marks and fine frames carry none of their own. *)
let test_tree_time_columns () =
  let busy () = ignore (Sys.opaque_identity (List.init 2000 Fun.id)) in
  let (), r =
    Obs.with_sink ~profile:true (fun () ->
        for _ = 1 to 3 do
          Obs.span "a" (fun () ->
              busy ();
              Obs.span "b" (fun () ->
                  busy ();
                  Obs.span "c" busy;
                  Obs.mark "m");
              Obs.prof_enter "fine";
              Obs.span "d" busy;
              busy ();
              Obs.prof_exit ())
        done)
  in
  let rows = Array.of_list (Prof.rows r.Obs.prof) in
  let rec timed_below id =
    Array.fold_left ( +. ) 0.0
      (Array.mapi
         (fun c (row : Prof.row) ->
           if row.Prof.parent <> id then 0.0
           else
             match row.Prof.kind with
             | Prof.Fine -> timed_below c
             | Prof.Span | Prof.Mark -> row.Prof.cum_us)
         rows)
  in
  let tol = 1e-6 in
  Alcotest.(check (list string))
    "rows"
    [
      "a d1 x3"; "a/b d2 x3"; "a/b/c d3 x3"; "a/b/m d3 x3 mark";
      "a/fine d2 x3 fine"; "a/fine/d d3 x3";
    ]
    (tree_rows r);
  Array.iteri
    (fun id (row : Prof.row) ->
      match row.Prof.kind with
      | Prof.Span ->
        if row.Prof.self_us < -.tol then
          Alcotest.failf "%s: negative self time %g" row.Prof.path
            row.Prof.self_us;
        let want = row.Prof.self_us +. timed_below id in
        if Float.abs (row.Prof.cum_us -. want) > tol *. Float.max 1.0 want
        then
          Alcotest.failf "%s: cum %g <> self + children %g" row.Prof.path
            row.Prof.cum_us want
      | Prof.Fine | Prof.Mark ->
        Helpers.alco_float (row.Prof.path ^ " self") 0.0 row.Prof.self_us;
        Helpers.alco_float (row.Prof.path ^ " cum") 0.0 row.Prof.cum_us)
    rows

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)

let test_histogram_bucket_edges () =
  let (), r =
    Obs.with_sink (fun () ->
        List.iter
          (Obs.observe ~edges:[| 1.0; 2.0; 5.0 |] "h")
          [ 0.5; 1.0; 1.5; 2.0; 5.0; 7.0 ])
  in
  match Metrics.snapshot r.Obs.metrics with
  | [ ("h", Metrics.Histogram_v h) ] ->
    (* Bucket rule is [v <= edge], first match: edge-exact observations
       land in their own bucket, strictly-greater ones spill over. *)
    Alcotest.(check (array int)) "bucket counts" [| 2; 2; 1; 1 |]
      h.Metrics.counts;
    Alcotest.(check int) "observations" 6 h.Metrics.observations;
    Helpers.alco_float "sum" 17.0 h.Metrics.sum
  | _ -> Alcotest.fail "expected exactly one histogram"

(* The linear-interpolation rule behind the p50/p90/p99 exporter rows: ranks inside a bucket interpolate between
   its edges (lower edge of bucket 0 is 0), ranks in the overflow
   bucket pin to the last finite edge. *)
let test_percentile_interpolation () =
  let (), r =
    Obs.with_sink (fun () ->
        List.iter
          (Obs.observe ~edges:[| 1.0; 2.0; 5.0 |] "h")
          [ 0.5; 1.0; 1.5; 2.0; 5.0; 7.0 ])
  in
  let rows = String.split_on_char '\n' (Export.metrics_csv r) in
  let row name = List.mem ("histogram,h." ^ name) rows in
  Alcotest.(check bool) "p50 interpolates" true (row "p50,1.5");
  Alcotest.(check bool) "p90 pins to last edge" true (row "p90,5");
  Alcotest.(check bool) "p99 pins to last edge" true (row "p99,5")

let test_histogram_rejects_bad_edges () =
  let raises f =
    match Obs.with_sink f with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "descending edges rejected" true
    (raises (fun () -> Obs.observe ~edges:[| 2.0; 1.0 |] "h" 0.5));
  Alcotest.(check bool) "kind mismatch rejected" true
    (raises (fun () ->
         Obs.incr "mixed";
         Obs.observe "mixed" 1.0))

(* ------------------------------------------------------------------ *)
(* Metrics.merge conflict detection                                    *)

(* The happy path (worker registries folded into the caller's sink) is
   covered by the Par_sweep suites; these pin the failure modes, which
   must raise rather than silently corrupt a merged registry. *)
let test_merge_conflicts_rejected () =
  let filled f =
    let (), r = Obs.with_sink f in
    r
  in
  let merge_raises into src =
    match Metrics.merge ~into:into.Obs.metrics src.Obs.metrics with
    | exception Invalid_argument _ -> true
    | () -> false
  in
  let h_coarse = filled (fun () -> Obs.observe ~edges:[| 1.0; 2.0 |] "h" 0.5) in
  let h_fine =
    filled (fun () -> Obs.observe ~edges:[| 1.0; 2.0; 5.0 |] "h" 0.5)
  in
  Alcotest.(check bool) "histogram edge mismatch rejected" true
    (merge_raises h_coarse h_fine);
  let counter = filled (fun () -> Obs.incr "m") in
  let gauge = filled (fun () -> Obs.gauge "m" 1.0) in
  Alcotest.(check bool) "counter/gauge kind mismatch rejected" true
    (merge_raises counter gauge);
  Alcotest.(check bool) "gauge/counter kind mismatch rejected" true
    (merge_raises gauge counter);
  (* Same name, same shape merges fine — the conflicts above are about
     incompatible registrations, not name reuse. *)
  let c2 = filled (fun () -> Obs.incr ~by:2 "m") in
  Metrics.merge ~into:counter.Obs.metrics c2.Obs.metrics;
  Alcotest.(check (option int)) "compatible merge sums" (Some 3)
    (Metrics.counter counter.Obs.metrics "m")

(* ------------------------------------------------------------------ *)
(* CSV export golden                                                   *)

let test_metrics_csv_golden () =
  let (), r =
    Obs.with_sink (fun () ->
        Obs.incr "alpha";
        Obs.incr ~by:2 "alpha";
        Obs.gauge "g" 1.5;
        Obs.observe ~edges:[| 1.0; 2.0 |] "h" 0.5;
        Obs.observe "h" 2.0;
        Obs.observe "h" 9.0)
  in
  Alcotest.(check string) "golden CSV"
    "kind,name,value\n\
     counter,alpha,3\n\
     gauge,g,1.5\n\
     histogram,h.le.1,1\n\
     histogram,h.le.2,1\n\
     histogram,h.overflow,1\n\
     histogram,h.count,3\n\
     histogram,h.sum,11.5\n\
     histogram,h.p50,1.5\n\
     histogram,h.p90,2\n\
     histogram,h.p99,2\n"
    (Export.metrics_csv r)

(* ------------------------------------------------------------------ *)
(* Chrome trace JSON well-formedness                                   *)

(* Minimal recursive-descent JSON parser — enough to validate exporter
   output without a JSON dependency (the repo deliberately has none). *)
type json =
  | J_null
  | J_bool of bool
  | J_num of float
  | J_str of string
  | J_arr of json list
  | J_obj of (string * json) list

exception Bad_json of string

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then s.[!pos] else fail "unexpected end" in
  let advance () = incr pos in
  let rec skip_ws () =
    if
      !pos < n
      && (match s.[!pos] with ' ' | '\n' | '\t' | '\r' -> true | _ -> false)
    then begin
      advance ();
      skip_ws ()
    end
  in
  let expect c =
    if peek () = c then advance ()
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> advance (); Buffer.contents buf
      | '\\' ->
        advance ();
        let c = peek () in
        advance ();
        (match c with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
          if !pos + 4 > n then fail "truncated \\u escape";
          pos := !pos + 4;
          Buffer.add_char buf '?'
        | _ -> fail "bad escape");
        go ()
      | c -> Buffer.add_char buf c; advance (); go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let numeric c =
      (c >= '0' && c <= '9')
      || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while !pos < n && numeric s.[!pos] do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> J_num f
    | None -> fail "bad number"
  in
  let literal text v =
    let l = String.length text in
    if !pos + l <= n && String.sub s !pos l = text then begin
      pos := !pos + l;
      v
    end
    else fail ("expected " ^ text)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
      advance ();
      skip_ws ();
      if peek () = '}' then (advance (); J_obj [])
      else begin
        let rec members acc =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' -> advance (); members ((key, v) :: acc)
          | '}' -> advance (); List.rev ((key, v) :: acc)
          | _ -> fail "expected ',' or '}'"
        in
        J_obj (members [])
      end
    | '[' ->
      advance ();
      skip_ws ();
      if peek () = ']' then (advance (); J_arr [])
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' -> advance (); elements (v :: acc)
          | ']' -> advance (); List.rev (v :: acc)
          | _ -> fail "expected ',' or ']'"
        in
        J_arr (elements [])
      end
    | '"' -> J_str (parse_string ())
    | 't' -> literal "true" (J_bool true)
    | 'f' -> literal "false" (J_bool false)
    | 'n' -> literal "null" J_null
    | _ -> parse_number ()
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let field obj key =
  match obj with J_obj kvs -> List.assoc_opt key kvs | _ -> None

let str_field obj key =
  match field obj key with Some (J_str s) -> Some s | _ -> None

let test_chrome_trace_wellformed () =
  let (), r = Obs.with_sink workload in
  let trace = Export.chrome_trace r in
  match parse_json trace with
  | exception Bad_json msg -> Alcotest.fail ("trace is not valid JSON: " ^ msg)
  | J_arr (meta :: events) ->
    Alcotest.(check (option string))
      "leads with process metadata" (Some "M") (str_field meta "ph");
    Alcotest.(check bool) "has events" true (events <> []);
    let seen = Hashtbl.create 4 in
    List.iter
      (fun ev ->
        (match str_field ev "name" with
        | Some _ -> ()
        | None -> Alcotest.fail "event without a name");
        let numeric key =
          match field ev key with
          | Some (J_num _) -> ()
          | _ -> Alcotest.fail (Printf.sprintf "missing numeric %S" key)
        in
        match str_field ev "ph" with
        | Some "X" ->
          Hashtbl.replace seen "X" ();
          numeric "ts";
          numeric "dur";
          (match field ev "args" with
          | Some args when str_field args "path" <> None -> ()
          | _ -> Alcotest.fail "span without args.path")
        | Some "i" ->
          Hashtbl.replace seen "i" ();
          numeric "ts";
          Alcotest.(check (option string)) "instant scope" (Some "t")
            (str_field ev "s")
        | Some "C" ->
          Hashtbl.replace seen "C" ();
          numeric "ts";
          (match field ev "args" with
          | Some args when field args "value" <> None -> ()
          | _ -> Alcotest.fail "counter without args.value")
        | other ->
          Alcotest.fail
            (Printf.sprintf "unexpected phase %S"
               (Option.value ~default:"<none>" other)))
      events;
    List.iter
      (fun ph ->
        Alcotest.(check bool)
          (Printf.sprintf "emits %S events" ph)
          true (Hashtbl.mem seen ph))
      [ "X"; "i"; "C" ]
  | _ -> Alcotest.fail "trace is not a JSON array"

(* More completions than the trace ring holds: the trace stays
   well-formed and keeps exactly the latest [trace_capacity] spans and
   marks, the tree's counts stay exact, and the recorder does not grow
   with further completions. *)
let test_chrome_trace_ring_bounded () =
  let cap = 4096 (* the recorder's trace ring capacity *) in
  let record completions =
    let (), r =
      Obs.with_sink (fun () ->
          Obs.span "first" ignore;
          for i = 1 to completions do
            if i mod 2 = 0 then Obs.mark "m" else Obs.span "s" ignore
          done)
    in
    r
  in
  let r = record cap in
  (match parse_json (Export.chrome_trace r) with
  | exception Bad_json msg -> Alcotest.fail ("trace is not valid JSON: " ^ msg)
  | J_arr events ->
    let named name =
      List.length
        (List.filter (fun ev -> str_field ev "name" = Some name) events)
    in
    let timeline =
      List.filter
        (fun ev ->
          match str_field ev "ph" with Some ("X" | "i") -> true | _ -> false)
        events
    in
    Alcotest.(check int) "exactly capacity events" cap (List.length timeline);
    Alcotest.(check int) "oldest completion dropped" 0 (named "first");
    Alcotest.(check int) "latest spans kept" (cap / 2) (named "s");
    Alcotest.(check int) "latest marks kept" (cap / 2) (named "m")
  | _ -> Alcotest.fail "trace is not a JSON array");
  Alcotest.(check (list string))
    "row counts exact"
    [ "first d1 x1"; Printf.sprintf "s d1 x%d" (cap / 2);
      Printf.sprintf "m d1 x%d mark" (cap / 2) ]
    (tree_rows r);
  let size r = Obj.reachable_words (Obj.repr r.Obs.prof) in
  Alcotest.(check int) "recorder size independent of completions" (size r)
    (size (record (3 * cap)))

(* ------------------------------------------------------------------ *)
(* Chrome trace escaping                                                *)

(* Span and mark names flow into JSON string positions; a quote or
   backslash in a name must survive the round trip (shared Jsonc
   escaping, DESIGN.md §12). *)
let test_chrome_trace_escaping () =
  let hostile = {|a "quoted\name|} ^ "\twith\ncontrols" in
  let (), r =
    Obs.with_sink (fun () ->
        Obs.span hostile (fun () -> Obs.mark hostile);
        Obs.incr hostile)
  in
  let trace = Export.chrome_trace r in
  match parse_json trace with
  | exception Bad_json msg -> Alcotest.fail ("trace is not valid JSON: " ^ msg)
  | J_arr events ->
    let names =
      List.filter_map (fun ev -> str_field ev "name") events
    in
    Alcotest.(check bool) "hostile name survives the round trip" true
      (List.mem hostile names)
  | _ -> Alcotest.fail "trace is not a JSON array"

(* ------------------------------------------------------------------ *)
(* Solver probe-count regression                                       *)

let read_file = Helpers.read_file

(* Snapshots the solver's probe/outcome counters on a fixed 20-operator
   instance against a golden file.  A change in the probing strategy (or
   the ledger's hit/miss behaviour) shows up as a reviewable diff of
   test/probe_counts.golden instead of a magic-number edit: regenerate
   by pasting the "actual" rendering the failure prints. *)
let test_probe_count_regression () =
  let inst =
    Insp.Instance.generate
      (Insp.Config.make ~n_operators:20 ~alpha:0.9 ~seed:1 ())
  in
  let _, r =
    Obs.with_sink (fun () ->
        Insp.Solve.run_all ~seed:1 inst.Insp.Instance.app
          inst.Insp.Instance.platform)
  in
  let counter name = Metrics.counter r.Obs.metrics name in
  let snapshot =
    String.concat ""
      (List.map
         (fun name ->
           Printf.sprintf "%s %d\n" name
             (Option.value ~default:0 (counter name)))
         [
           "heur.probe"; "heur.probe.hit"; "heur.probe.miss"; "heur.acquire";
           "heur.solve.ok";
         ])
  in
  Alcotest.(check string)
    "probe counter snapshot matches test/probe_counts.golden"
    (read_file "probe_counts.golden") snapshot;
  let hits = Option.value ~default:0 (counter "heur.probe.hit") in
  let misses = Option.value ~default:0 (counter "heur.probe.miss") in
  Alcotest.(check (option int)) "hits + misses = probes" (Some (hits + misses))
    (counter "heur.probe")

(* ------------------------------------------------------------------ *)
(* Allocation profiler (Obs.Prof)                                      *)

(* One profiled comp-greedy solve of the scale preset (small N keeps the
   test quick; the bench alloc.100k row covers the full size). *)
let profiled_operators = 2000

let profiled_scale_solve () =
  let inst =
    match
      Insp.Instance.generate_checked
        (Insp.Config.scale ~n_operators:profiled_operators ())
    with
    | Ok t -> t
    | Error e -> failwith (Insp.Instance.gen_error_message e)
  in
  let outcome, r =
    Obs.with_sink ~profile:true (fun () ->
        Insp.Solve.run ~seed:1
          (Option.get (Insp.Solve.find "comp"))
          inst.Insp.Instance.app inst.Insp.Instance.platform)
  in
  (match outcome with
  | Ok _ -> ()
  | Error f -> failwith (Insp.Solve.failure_message f));
  r

(* Minor-word deltas are a deterministic function of a deterministic
   execution (DESIGN.md §17): the minor-words-keyed exports must be
   byte-identical across two same-seed runs.  (prof_csv additionally
   carries promoted/major columns, which depend on minor-heap phase at
   run start and make no such promise.) *)
let test_prof_deterministic () =
  let a = profiled_scale_solve () in
  let b = profiled_scale_solve () in
  Alcotest.(check string) "identical prof_report" (Export.prof_report a)
    (Export.prof_report b);
  Alcotest.(check string) "identical folded alloc stacks"
    (Export.prof_folded_alloc a)
    (Export.prof_folded_alloc b)

(* Commit-path allocation: the ledger.* frames (probes and commits,
   DESIGN.md §16.1) must stay under a fixed minor-word budget per
   operator of the profiled solve.  The persistent-map ledger spent ~300
   words per operator here; the flat-row ledger spends ~38, the probe
   results themselves being most of it. *)
let ledger_words_per_operator_cap = 60.0

let test_prof_commit_path_attribution () =
  let r = profiled_scale_solve () in
  let p = r.Obs.prof in
  let segs (row : Prof.row) = String.split_on_char '/' row.Prof.path in
  let is_ledger row =
    match List.rev (segs row) with
    | leaf :: _ -> String.length leaf >= 7 && String.sub leaf 0 7 = "ledger."
    | [] -> false
  in
  let ledger =
    List.fold_left
      (fun l row ->
        if List.mem "placement" (segs row) && is_ledger row then
          l +. row.Prof.self_minor
        else l)
      0.0 (Prof.rows p)
  in
  Alcotest.(check bool) "commit path has ledger rows" true
    (Float.compare ledger 0.0 > 0);
  let per_op = ledger /. float_of_int profiled_operators in
  if Float.compare per_op ledger_words_per_operator_cap > 0 then
    Alcotest.failf "ledger.* self minor words per operator: %.1f (cap %.0f)"
      per_op ledger_words_per_operator_cap

(* With no sink installed the profiling entry points must not allocate:
   both loops below pay the identical constant cost of the bracketing
   [Gc.minor_words] reads inside [allocated_minor_words], so the two
   measurements are equal exactly when the 10k guarded calls allocate
   nothing.  Audited with Prof's own primitive. *)
let test_prof_disabled_zero_alloc () =
  Alcotest.(check bool) "no sink" false (Obs.enabled ());
  let body () =
    for _ = 1 to 10_000 do
      Obs.prof_enter "audit";
      Obs.prof_exit ();
      ignore (Obs.span "audit" (fun () -> 0))
    done
  in
  (* Warm-up: first calls may fault in DLS state. *)
  body ();
  let empty = Prof.allocated_minor_words (fun () -> ()) in
  let guarded = Prof.allocated_minor_words body in
  if Float.compare guarded empty <> 0 then
    Alcotest.failf
      "disabled profiling calls allocated %.0f words over 10k iterations"
      (guarded -. empty)

(* Under a sink a counter hit allocates nothing, with or without [~by]:
   1000 increments of an already registered counter measure the same
   as the empty-thunk calibration. *)
let test_incr_zero_alloc () =
  let (), _ =
    Obs.with_sink (fun () ->
        Obs.incr "audit";
        let bump () =
          for _ = 1 to 1000 do
            Obs.incr "audit"
          done
        and bump_by () =
          for _ = 1 to 1000 do
            Obs.incr ~by:3 "audit"
          done
        in
        (* warm-up, then the measured runs *)
        bump ();
        bump_by ();
        let empty = Prof.allocated_minor_words (fun () -> ()) in
        List.iter
          (fun (what, body) ->
            let words = Prof.allocated_minor_words body in
            if Float.compare words empty <> 0 then
              Alcotest.failf "1000 Obs.incr%s allocated %.0f words" what
                (words -. empty))
          [ ("", bump); (" ~by", bump_by) ])
  in
  ()

(* Folded-stack regression for the 20-operator reference instance, the
   alloc analogue of probe_counts.golden: a change in commit-path
   allocation shows up as a reviewable diff of test/alloc_counts.golden.
   Regenerate by pasting the "actual" rendering the failure prints. *)
let test_alloc_count_regression () =
  let inst =
    Insp.Instance.generate
      (Insp.Config.make ~n_operators:20 ~alpha:0.9 ~seed:1 ())
  in
  let solve () =
    Obs.with_sink ~profile:true (fun () ->
        Insp.Solve.run_all ~seed:1 inst.Insp.Instance.app
          inst.Insp.Instance.platform)
  in
  (* One discarded warm-up run so one-time initialisation (the clock's
     domain-local clamp cell, lazy toplevel values) is not attributed to
     the measured run — the golden records steady-state counts. *)
  ignore (solve ());
  let _, r = solve () in
  Alcotest.(check string)
    "folded alloc stacks match test/alloc_counts.golden"
    (read_file "alloc_counts.golden")
    (Export.prof_folded_alloc r)

let () =
  Alcotest.run "obs"
    [
      ( "facade",
        [
          Alcotest.test_case "disabled is a no-op" `Quick test_disabled_noop;
          Alcotest.test_case "with_sink restores" `Quick
            test_with_sink_restores;
          Alcotest.test_case "span exception-safe" `Quick
            test_span_exception_safe;
        ] );
      ( "registry",
        [
          Alcotest.test_case "deterministic across runs" `Quick
            test_registry_deterministic;
          Alcotest.test_case "tree time columns add up" `Quick
            test_tree_time_columns;
          Alcotest.test_case "histogram bucket edges" `Quick
            test_histogram_bucket_edges;
          Alcotest.test_case "percentile interpolation" `Quick
            test_percentile_interpolation;
          Alcotest.test_case "rejects bad edges and kind mixes" `Quick
            test_histogram_rejects_bad_edges;
          Alcotest.test_case "merge rejects conflicting registries" `Quick
            test_merge_conflicts_rejected;
        ] );
      ( "export",
        [
          Alcotest.test_case "metrics CSV golden" `Quick
            test_metrics_csv_golden;
          Alcotest.test_case "Chrome trace well-formed" `Quick
            test_chrome_trace_wellformed;
          Alcotest.test_case "Chrome trace escaping round-trip" `Quick
            test_chrome_trace_escaping;
          Alcotest.test_case "Chrome trace ring bounded" `Quick
            test_chrome_trace_ring_bounded;
        ] );
      ( "prof",
        [
          Alcotest.test_case "deterministic exports across runs" `Quick
            test_prof_deterministic;
          Alcotest.test_case "commit-path ledger attribution" `Quick
            test_prof_commit_path_attribution;
          Alcotest.test_case "counter hits allocate nothing" `Quick
            test_incr_zero_alloc;
          Alcotest.test_case "disabled entry points allocate nothing" `Quick
            test_prof_disabled_zero_alloc;
        ] );
      ( "regression",
        [
          Alcotest.test_case "ledger probe count" `Quick
            test_probe_count_regression;
          Alcotest.test_case "ledger alloc counts" `Quick
            test_alloc_count_regression;
        ] );
    ]
