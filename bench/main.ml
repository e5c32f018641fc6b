(* Benchmark and reproduction harness.

   Usage:
     dune exec bench/main.exe                  # every experiment + timings
     dune exec bench/main.exe -- fig2a fig3    # selected experiments only
     dune exec bench/main.exe -- catalog       # just the Table-1 catalog
     dune exec bench/main.exe -- --quick       # fast mode (fewer seeds)
     dune exec bench/main.exe -- --json F      # machine-readable summary to F
     dune exec bench/main.exe -- --jobs N      # N sweep domains (same output)

   For every table and figure of the paper's evaluation (see DESIGN.md
   §4) this prints the regenerated series as a text table plus a CSV
   block, then runs one bechamel micro-benchmark per experiment timing
   the code that backs it. *)

open Bechamel
open Toolkit

let line title =
  Printf.printf "\n======== %s ========\n%!" title

(* ------------------------------------------------------------------ *)
(* Experiment reproduction                                             *)

let catalog_table () =
  Format.printf "%a@." Insp.Catalog.pp Insp.Catalog.dell_2008

(* Each experiment runs under its own observability sink and wall-clock
   timer; the per-experiment recorders feed the text reports and the
   --json summary. *)
let run_experiment ~quick ~jobs id =
  line ("experiment " ^ id);
  match id with
  | "catalog" ->
    catalog_table ();
    None
  | _ -> (
    let t0 = Unix.gettimeofday () in
    let out, recorder =
      Insp.Obs.with_sink (fun () -> Insp.Suite.run_by_id ~quick ~jobs id)
    in
    let wall_s = Unix.gettimeofday () -. t0 in
    match out with
    | Some output ->
      print_string output;
      Printf.printf "\n-- observability (%s, %.2f s) --\n%s" id wall_s
        (Insp.Obs_export.text_report recorder);
      Some (id, wall_s, recorder)
    | None ->
      Printf.printf "unknown experiment: %s\n" id;
      None)

(* BENCH_insp.json: headline wall time and recorded counters/gauges per
   experiment, for trend tracking across commits. *)
let bench_json ~quick results =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"schema\": \"insp-bench-v1\",\n";
  Buffer.add_string b (Printf.sprintf "  \"quick\": %b,\n" quick);
  Buffer.add_string b "  \"experiments\": [";
  List.iteri
    (fun i (id, wall_s, (recorder : Insp.Obs.t)) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "\n    {\"id\": %s, \"wall_s\": %.3f"
           (Insp.Obs_jsonc.string id) wall_s);
      let snapshot = Insp.Obs_metrics.snapshot recorder.Insp.Obs.metrics in
      let fields kind select =
        let entries = List.filter_map select snapshot in
        if entries <> [] then begin
          Buffer.add_string b (Printf.sprintf ",\n     \"%s\": {" kind);
          List.iteri
            (fun j (name, v) ->
              if j > 0 then Buffer.add_string b ", ";
              Buffer.add_string b
                (Printf.sprintf "%s: %s" (Insp.Obs_jsonc.string name) v))
            entries;
          Buffer.add_char b '}'
        end
      in
      fields "counters" (function
        | name, Insp.Obs_metrics.Counter_v c -> Some (name, string_of_int c)
        | _ -> None);
      fields "gauges" (function
        | name, Insp.Obs_metrics.Gauge_v g ->
          Some (name, Printf.sprintf "%.6g" g)
        | _ -> None);
      Buffer.add_string b "}")
    results;
  Buffer.add_string b "\n  ]\n}\n";
  Buffer.contents b

let summarize_rankings ~quick () =
  line "ranking summary (lowest mean cost per x point)";
  let figures =
    if quick then
      [ Insp.Suite.fig2a ~seeds:[ 1; 2 ] ~ns:[ 20; 60 ] () ]
    else
      [
        Insp.Suite.fig2a ();
        Insp.Suite.fig2b ();
        Insp.Suite.fig3 ();
        Insp.Suite.large_objects ();
      ]
  in
  List.iter
    (fun fig ->
      let wins = Insp.Figure.winner_counts fig in
      Printf.printf "%-6s: %s\n" fig.Insp.Figure.id
        (String.concat ", "
           (List.map (fun (n, w) -> Printf.sprintf "%s=%d" n w) wins)))
    figures

let run_ablations ~quick () =
  line "ablation studies (design choices, DESIGN.md)";
  List.iter
    (fun (id, render) ->
      Printf.printf "\n-- %s --\n%!" id;
      print_string (render ~quick))
    Insp_experiments.Ablations.all

(* ------------------------------------------------------------------ *)
(* Feasibility-probe throughput of the ledger                          *)

(* Greedy first-fit construction through the Builder, counting
   feasibility probes.  Returns (probes, groups built). *)
let greedy_ledger app platform =
  let best = Insp.Catalog.best platform.Insp.Platform.catalog in
  let b = Insp.Builder.create (Insp.Graph.of_app app) platform in
  let probes = ref 0 in
  for i = 0 to Insp.App.n_operators app - 1 do
    let placed =
      List.exists
        (fun gid ->
          incr probes;
          Insp.Builder.try_add b gid i)
        (Insp.Builder.group_ids b)
    in
    if not placed then begin
      incr probes;
      ignore (Insp.Builder.acquire b ~config:best ~members:[ i ])
    end
  done;
  (!probes, List.length (Insp.Builder.group_ids b))

let run_probe_bench ~quick () =
  line "feasibility-probe throughput (ledger)";
  let inst =
    Insp.Instance.generate
      (Insp.Config.make ~n_operators:100 ~alpha:0.9 ~seed:1 ())
  in
  let reps = if quick then 5 else 30 in
  let t0 = Sys.time () in
  let probes = ref 0 and groups = ref 0 in
  for _ = 1 to reps do
    let p, g = greedy_ledger inst.Insp.Instance.app inst.Insp.Instance.platform in
    probes := p;
    groups := g
  done;
  let dt = Sys.time () -. t0 in
  Printf.printf "ledger: %9.0f probes/s  (%d probes, %d groups per build)\n%!"
    (float_of_int (!probes * reps) /. Float.max dt 1e-9)
    !probes !groups

(* ------------------------------------------------------------------ *)
(* Scale rows: one heuristic on a 10k/100k-operator tree                *)

(* Each scale row generates a Config.scale instance (tiny objects, so
   the unchanged dell_2008 catalog still hosts the tree) and runs one
   heuristic's pipeline end to end — placement, server selection,
   downgrade and the full checker.  The row records a hard wall-clock
   budget (gauge "wall_budget_s"); bench/compare.exe fails when a
   scale.* row exceeds its own budget (DESIGN.md §16).  A row given
   [~budget_words] also records the solve's minor words, which are
   deterministic, against that exact budget. *)
let scale_entry ~n ~heuristic ~budget_s ?budget_words name () =
  line (Printf.sprintf "%s (%d-operator scale instance)" name n);
  let inst =
    match
      Insp.Instance.generate_checked (Insp.Config.scale ~n_operators:n ())
    with
    | Ok t -> t
    | Error e -> failwith (Insp.Instance.gen_error_message e)
  in
  let t0 = Unix.gettimeofday () in
  let (outcome, minor), recorder =
    Insp.Obs.with_sink (fun () ->
        let w0 = Gc.minor_words () in
        let outcome =
          Insp.Solve.run ~seed:1
            (Option.get (Insp.Solve.find heuristic))
            inst.Insp.Instance.app inst.Insp.Instance.platform
        in
        (outcome, Gc.minor_words () -. w0))
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  let m = recorder.Insp.Obs.metrics in
  Insp.Obs_metrics.set_gauge m "wall_budget_s" budget_s;
  Option.iter
    (fun budget ->
      Insp.Obs_metrics.set_gauge m "alloc.minor_words" minor;
      Insp.Obs_metrics.set_gauge m "alloc_budget_words" budget;
      Printf.printf "N=%d: %.0f minor words (budget %.0f)\n%!" n minor budget)
    budget_words;
  Insp.Obs_metrics.set_gauge m "scale.ops_per_s"
    (float_of_int n /. Float.max wall_s 1e-9);
  (match outcome with
  | Ok o ->
    Insp.Obs_metrics.incr ~by:o.Insp.Solve.n_procs m "scale.procs";
    Printf.printf
      "N=%d: %d processors, $%.0f in %.2f s (%.0f operators/s, budget %.1f s)\n%!"
      n o.Insp.Solve.n_procs o.Insp.Solve.cost wall_s
      (float_of_int n /. Float.max wall_s 1e-9)
      budget_s
  | Error f ->
    Printf.printf "N=%d: FAILED: %s\n%!" n (Insp.Solve.failure_message f));
  (name, wall_s, recorder)

(* ------------------------------------------------------------------ *)
(* Allocation rows: minor words per solve, attributed via Obs.Prof      *)

(* Run the scale-preset solve under a profiling sink and report the
   profiler's totals as gauges.  "alloc.minor_words" is a hard-gated
   row: bench/compare.exe fails when it exceeds the committed
   "alloc_budget_words" (DESIGN.md §17) — the allocation analogue of
   the scale rows' wall budget.  Minor words are a deterministic
   function of the (deterministic) solve, so unlike wall gauges the
   value is byte-stable run-to-run and any change is a code change. *)
let prof_totals recorder =
  let p = recorder.Insp.Obs.prof in
  (Insp.Obs_prof.totals p, Insp.Obs_prof.rows p)

(* Self minor words of the commit path's "ledger.*" frames (probes and
   commits inside the placement phase) — the quantity test_obs caps per
   operator. *)
let commit_ledger_words rows =
  let segs (r : Insp.Obs_prof.row) =
    String.split_on_char '/' r.Insp.Obs_prof.path
  in
  let is_ledger r =
    match List.rev (segs r) with
    | leaf :: _ -> String.length leaf >= 7 && String.sub leaf 0 7 = "ledger."
    | [] -> false
  in
  List.fold_left
    (fun l r ->
      if List.mem "placement" (segs r) && is_ledger r then
        l +. r.Insp.Obs_prof.self_minor
      else l)
    0.0 rows

let alloc_entry ~n ~budget_words name () =
  line (Printf.sprintf "%s (minor words, %d-operator scale solve)" name n);
  let inst =
    match
      Insp.Instance.generate_checked (Insp.Config.scale ~n_operators:n ())
    with
    | Ok t -> t
    | Error e -> failwith (Insp.Instance.gen_error_message e)
  in
  let t0 = Unix.gettimeofday () in
  let outcome, recorder =
    Insp.Obs.with_sink ~profile:true (fun () ->
        Insp.Solve.run ~seed:1
          (Option.get (Insp.Solve.find "comp"))
          inst.Insp.Instance.app inst.Insp.Instance.platform)
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  (match outcome with
  | Ok _ -> ()
  | Error f -> failwith (Insp.Solve.failure_message f));
  let totals, rows = prof_totals recorder in
  let minor = totals.Insp.Obs_prof.t_minor in
  let ledger = commit_ledger_words rows /. float_of_int n in
  let m = recorder.Insp.Obs.metrics in
  Insp.Obs_metrics.set_gauge m "alloc.minor_words" minor;
  Insp.Obs_metrics.set_gauge m "alloc_budget_words" budget_words;
  Insp.Obs_metrics.set_gauge m "alloc.words_per_op" (minor /. float_of_int n);
  Insp.Obs_metrics.set_gauge m "alloc.ledger_words_per_op" ledger;
  Printf.printf
    "N=%d: %.0f minor words (%.1f per operator, %.1f in ledger.* commit \
     frames, budget %.0f)\n\
     %!"
    n minor
    (minor /. float_of_int n)
    ledger budget_words;
  print_string (Insp.Obs_export.prof_report ~top:8 recorder);
  (name, wall_s, recorder)

(* Same contract for the online service: minor words across the serve
   event loop, gated per event so --quick (120 apps) and full (1000)
   runs share one budget constant. *)
let alloc_serve_entry ~quick () =
  line "alloc.serve_1k (minor words, serve event loop)";
  let n_apps = if quick then 120 else 1000 in
  (* 3,609 words/event measured under --quick, 3,709 in the full run
     (admission solve + ledger probe per arrival); the larger +2%, per
     event so --quick (120 apps) and full (1000) runs share one
     constant. *)
  let per_event_budget = 3_783.0 in
  let spec = Insp.Serve_stream.make ~n_apps ~seed:1 () in
  let events = Insp.Serve_stream.events spec in
  let params =
    Insp.Serve.make_params
      ~base:(Insp.Config.make ~n_operators:60 ~seed:1 ())
      ~proc_budget:128 ~card_scale:0.08 ()
  in
  let t0 = Unix.gettimeofday () in
  let _state, recorder =
    Insp.Obs.with_sink ~profile:true (fun () -> Insp.Serve.run params events)
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  let totals, _rows = prof_totals recorder in
  let minor = totals.Insp.Obs_prof.t_minor in
  let n_events = List.length events in
  let m = recorder.Insp.Obs.metrics in
  Insp.Obs_metrics.set_gauge m "alloc.minor_words" minor;
  Insp.Obs_metrics.set_gauge m "alloc_budget_words"
    (per_event_budget *. float_of_int n_events);
  Insp.Obs_metrics.set_gauge m "alloc.words_per_event"
    (minor /. float_of_int (max 1 n_events));
  Printf.printf "%d events: %.0f minor words (%.0f per event)\n%!" n_events
    minor
    (minor /. float_of_int (max 1 n_events));
  ("alloc.serve_1k", wall_s, recorder)

(* The DAG path (Cse sharing, then Dag_place with its downgrade and final check)
   on a fixed set of 6-app x 60-operator correlated sets: wall time and
   the minor-word delta across the placements, gated exactly like the
   other alloc rows.  Instances are generated outside the window. *)
let alloc_multi_entry () =
  line "alloc.multi (minor words, CSE + DAG placement, 8 sets of 6 x 60)";
  let sets =
    List.init 8 (fun seed ->
        Insp.Multi_workload.instance ~seed:(seed + 1) ~n_apps:6
          ~n_operators:60)
  in
  let t0 = Unix.gettimeofday () in
  let minor, recorder =
    Insp.Obs.with_sink (fun () ->
        let w0 = Gc.minor_words () in
        List.iter
          (fun (apps, platform) ->
            match Insp.Dag_place.run (Insp.Cse.share_apps apps) platform with
            | Ok _ -> ()
            | Error f -> failwith (Insp.Dag_place.failure_message f))
          sets;
        Gc.minor_words () -. w0)
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  let m = recorder.Insp.Obs.metrics in
  Insp.Obs_metrics.set_gauge m "alloc.minor_words" minor;
  (* 1.06M words measured, +2% *)
  Insp.Obs_metrics.set_gauge m "alloc_budget_words" 1_081_000.0;
  Printf.printf "%d sets: %.0f minor words, %.3f s\n%!" (List.length sets)
    minor wall_s;
  ("alloc.multi", wall_s, recorder)

(* The exact solver on a shared DAG: the branch and bound over three
   correlated 5-operator applications (seed 2), which CSE shares into 14
   nodes, on the homogeneous catalog of the ilp experiment (fastest
   CPU, 1250 MB/s NIC).  "lp.exact.node" pins the search; its minor words are gated
   exactly like the other alloc rows.  The DAG is built outside the
   window. *)
let ilp_dag_entry () =
  line "ilp.dag (exact B&B, CSE-shared 3 x 5 operators, homogeneous)";
  let apps, platform = Insp.Multi_workload.instance ~seed:2 ~n_apps:3 ~n_operators:5 in
  let platform = Insp.Platform.homogeneous platform ~cpu_index:4 ~nic_index:3 in
  let g = Insp.Dag.graph (Insp.Cse.share_apps apps) in
  let t0 = Unix.gettimeofday () in
  let (result, minor), recorder =
    Insp.Obs.with_sink (fun () ->
        let w0 = Gc.minor_words () in
        let r = Insp.Exact.solve g platform in
        (r, Gc.minor_words () -. w0))
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  let m = recorder.Insp.Obs.metrics in
  Insp.Obs_metrics.set_gauge m "alloc.minor_words" minor;
  (* 7,683 words measured, +2%; 7,824 measured since the flat graph
     layout, under it *)
  Insp.Obs_metrics.set_gauge m "alloc_budget_words" 7_837.0;
  (match result with
  | Ok r ->
    Printf.printf "%d nodes: %d processors (%s, %d nodes explored), %.0f minor words\n%!"
      (Insp.Graph.n_nodes g) r.Insp.Exact.n_procs
      (if r.Insp.Exact.proven then "proven" else "node limit hit")
      r.Insp.Exact.nodes minor
  | Error e -> failwith e);
  ("ilp.dag", wall_s, recorder)

(* DES validation at scale: a 10 s Runtime.run of the Comp-Greedy
   mapping of a 3k-operator scale tree (mapping built outside the
   window).  Gated on wall time and, exactly, on the run's minor words;
   "sim.event" pins the trajectory. *)
let sim_scale_entry () =
  let n = 3000 in
  line (Printf.sprintf "sim.3k (DES, %d-operator scale instance, 10 s)" n);
  let inst =
    match
      Insp.Instance.generate_checked
        (Insp.Config.scale ~seed:1 ~n_operators:n ())
    with
    | Ok t -> t
    | Error e -> failwith (Insp.Instance.gen_error_message e)
  in
  let app = inst.Insp.Instance.app
  and platform = inst.Insp.Instance.platform in
  let alloc =
    match
      Insp.Solve.run ~seed:1 (Option.get (Insp.Solve.find "comp")) app platform
    with
    | Ok o -> o.Insp.Solve.alloc
    | Error f -> failwith (Insp.Solve.failure_message f)
  in
  let t0 = Unix.gettimeofday () in
  let (report, minor), recorder =
    Insp.Obs.with_sink (fun () ->
        let w0 = Gc.minor_words () in
        let r = Insp.Runtime.run ~horizon:10.0 app platform alloc in
        (r, Gc.minor_words () -. w0))
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  let m = recorder.Insp.Obs.metrics in
  Insp.Obs_metrics.set_gauge m "alloc.minor_words" minor;
  (* 1.07M words measured, +2%; 0.6-0.9 s measured (2-vCPU VM), at
     least ~1.5x headroom *)
  Insp.Obs_metrics.set_gauge m "alloc_budget_words" 1_097_000.0;
  Insp.Obs_metrics.set_gauge m "wall_budget_s" 1.4;
  Printf.printf "%d processors: %d events, %.0f minor words, %.2f s\n%!"
    (Insp.Alloc.n_procs alloc) report.Insp.Runtime.events minor wall_s;
  ("sim.3k", wall_s, recorder)

(* DES validation of a shared DAG: a 240 s run of the Dag_place mapping
   of the seed-82 CSE set (3 apps x 15 operators, 9 processors), the
   DAG case where the DES falls short of rho (ROADMAP item 1).  Gated
   like sim.3k; the mapping is built outside the window. *)
let sim_dag_entry () =
  line "sim.dag (DES, seed-82 CSE set of 3 x 15 operators, 240 s)";
  let apps, platform =
    Insp.Multi_workload.instance ~seed:82 ~n_apps:3 ~n_operators:15
  in
  let dag = Insp.Cse.share_apps apps in
  let alloc =
    match Insp.Dag_place.run dag platform with
    | Ok o -> o.Insp.Dag_place.alloc
    | Error f -> failwith (Insp.Dag_place.failure_message f)
  in
  let t0 = Unix.gettimeofday () in
  let (report, minor), recorder =
    Insp.Obs.with_sink (fun () ->
        let w0 = Gc.minor_words () in
        let r = Insp.Dag.simulate ~horizon:240.0 dag platform alloc in
        (r, Gc.minor_words () -. w0))
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  let m = recorder.Insp.Obs.metrics in
  Insp.Obs_metrics.set_gauge m "alloc.minor_words" minor;
  (* 352,041 words measured, +2%; 0.04-0.06 s measured (2-vCPU VM), ~3x
     headroom on a wall time short enough for phase noise to show *)
  Insp.Obs_metrics.set_gauge m "alloc_budget_words" 360_000.0;
  Insp.Obs_metrics.set_gauge m "wall_budget_s" 0.15;
  Printf.printf
    "%d processors: %d events, %.3f of rho, %.0f minor words, %.2f s\n%!"
    (Insp.Alloc.n_procs alloc) report.Insp.Runtime.events
    (report.Insp.Runtime.achieved_throughput
    /. report.Insp.Runtime.target_throughput)
    minor wall_s;
  ("sim.dag", wall_s, recorder)

(* Ledger probe throughput at scale, as a tracked JSON row
   (run_probe_bench below prints the same greedy's throughput on a
   paper-sized instance). *)
let probe_throughput_entry ~quick () =
  line "probe throughput (ledger greedy first-fit, scale preset)";
  let n = if quick then 500 else 2000 in
  let inst =
    match
      Insp.Instance.generate_checked (Insp.Config.scale ~n_operators:n ())
    with
    | Ok t -> t
    | Error e -> failwith (Insp.Instance.gen_error_message e)
  in
  let t0 = Unix.gettimeofday () in
  let probes, groups =
    greedy_ledger inst.Insp.Instance.app inst.Insp.Instance.platform
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  let tput = float_of_int probes /. Float.max wall_s 1e-9 in
  Printf.printf "N=%d: %d probes, %d groups in %.3f s (%.0f probes/s)\n%!" n
    probes groups wall_s tput;
  let recorder = Insp.Obs.create () in
  let m = recorder.Insp.Obs.metrics in
  Insp.Obs_metrics.incr ~by:probes m "probe.probes";
  Insp.Obs_metrics.incr ~by:groups m "probe.groups";
  Insp.Obs_metrics.set_gauge m "probe.probes_per_s" tput;
  ("probe.throughput", wall_s, recorder)

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per experiment             *)

let fixed_instance ?(n = 60) ?(alpha = 0.9) ?sizes ?freq () =
  Insp.Instance.generate
    (Insp.Config.make ~n_operators:n ~alpha ?sizes ?freq ~seed:1 ())

(* ------------------------------------------------------------------ *)
(* Journal recording overhead: the zero-cost-when-off claim             *)

(* Same heuristic-suite workload with no sink installed and with a
   journaling sink; the delta is what `Obs.event` guards plus event
   construction cost.  Reported as a synthetic BENCH_insp.json row so
   bench-compare tracks it across commits. *)
let journal_overhead_entry ~quick () =
  line "journal overhead (no sink vs recording)";
  let inst = fixed_instance ~n:30 () in
  let work () =
    ignore
      (Insp.Solve.run_all ~seed:1 inst.Insp.Instance.app
         inst.Insp.Instance.platform)
  in
  let reps = if quick then 5 else 30 in
  let time f =
    (* one warmup rep keeps allocator state comparable between regimes *)
    f ();
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      f ()
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int reps
  in
  let off_s = time work in
  let events = ref 0 in
  let on_s =
    time (fun () ->
        let (), r = Insp.Obs.with_sink ~journal:true work in
        events := Insp.Obs_journal.length r.Insp.Obs.journal)
  in
  let overhead_pct = 100.0 *. ((on_s /. Float.max off_s 1e-9) -. 1.0) in
  Printf.printf
    "no sink:   %8.2f ms/run\n\
     recording: %8.2f ms/run  (%d journal events per run)\n\
     overhead:  %+7.1f%%\n\
     %!"
    (off_s *. 1e3) (on_s *. 1e3) !events overhead_pct;
  let recorder = Insp.Obs.create () in
  let m = recorder.Insp.Obs.metrics in
  Insp.Obs_metrics.incr ~by:!events m "journal.events";
  (* the _ms suffix marks these as wall-time gauges: bench-compare
     reports them but exempts them from the --strict drift check *)
  Insp.Obs_metrics.set_gauge m "journal.wall_off_ms" (off_s *. 1e3);
  Insp.Obs_metrics.set_gauge m "journal.wall_on_ms" (on_s *. 1e3);
  ("journal.overhead", on_s *. float_of_int reps, recorder)

(* ------------------------------------------------------------------ *)
(* Online service throughput: the serve event loop                      *)

(* One shared-substrate pass over the default 1000-application stream
   (admission solve + ledger probe per arrival, reclamation per
   departure).  The admitted/rejected counters ride along in the JSON
   row so bench-compare flags behavioural drift, not just wall time. *)
let serve_entry ~quick () =
  line "serve loop (shared substrate, 1k-application stream)";
  let n_apps = if quick then 120 else 1000 in
  let spec = Insp.Serve_stream.make ~n_apps ~seed:1 () in
  let events = Insp.Serve_stream.events spec in
  let params =
    Insp.Serve.make_params
      ~base:(Insp.Config.make ~n_operators:60 ~seed:1 ())
      ~proc_budget:128 ~card_scale:0.08 ()
  in
  let t0 = Unix.gettimeofday () in
  let state, recorder =
    Insp.Obs.with_sink (fun () -> Insp.Serve.run params events)
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  let totals = Insp.Serve.totals state in
  Printf.printf "%d events: admitted %d, rejected %d (%.1f%%) in %.2f s\n%!"
    (List.length events) totals.Insp.Serve.admitted totals.Insp.Serve.rejected
    (100.0 *. Insp.Serve.rejection_rate totals)
    wall_s;
  ("serve.1k_events", wall_s, recorder)

(* ------------------------------------------------------------------ *)
(* Fault repair loop: sustained crash/repair throughput                 *)

(* An all-crash timeline (bursty, ~2 victims per event) driven through
   the fault engine with DES measurement off: every cycle is one
   builder rebuild + displaced-operator re-placement + checker pass.
   The repair counters (migrations, rebuys) ride along in the JSON row
   so bench-compare flags behavioural drift in the repair policy, not
   just wall time. *)
let faults_repair_entry ~quick () =
  line "fault repair loop (crash/repair cycles, no DES)";
  let n_events = if quick then 60 else 500 in
  let inst = fixed_instance ~n:40 () in
  let g = Insp.Graph.of_app inst.Insp.Instance.app in
  let alloc =
    match
      Insp.Solve.run_graph ~seed:1 Insp.Solve.sbu g inst.Insp.Instance.platform
    with
    | Ok o -> o.Insp.Solve.alloc
    | Error f -> failwith (Insp.Solve.failure_message f)
  in
  let timeline =
    Insp.Fault_scenario.generate
      (Insp.Fault_scenario.make ~seed:1 ~horizon:100000.0 ~n_events
         ~mean_burst:2 ~crash_w:1 ~degrade_w:0 ~outage_w:0 ~jitter_w:0
         ~rho_w:0 ())
  in
  let spec = Insp.Fault_engine.make_spec ~measure:false () in
  let t0 = Unix.gettimeofday () in
  let report, recorder =
    Insp.Obs.with_sink (fun () ->
        Insp.Fault_engine.run spec g inst.Insp.Instance.platform alloc timeline)
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  let total_mig =
    List.fold_left
      (fun a (e : Insp.Fault_engine.episode) -> a + e.Insp.Fault_engine.ep_migrations)
      0 report.Insp.Fault_engine.episodes
  in
  Printf.printf
    "%d crashes repaired (%d migrations, %.0f $ re-allocated) in %.2f s \
     (%.0f repairs/s)\n%!"
    report.Insp.Fault_engine.n_crashes total_mig
    report.Insp.Fault_engine.total_realloc_cost wall_s
    (float_of_int report.Insp.Fault_engine.n_crashes /. Float.max wall_s 1e-9);
  ("faults.repair_1k", wall_s, recorder)

(* ------------------------------------------------------------------ *)
(* Redundancy hardening: the K=1 cost-of-resilience point               *)

let faults_frontier_entry ~quick () =
  line "redundancy frontier (K=1 hardening)";
  let n = if quick then 20 else 40 in
  let inst = fixed_instance ~n () in
  let g = Insp.Graph.of_app inst.Insp.Instance.app in
  let alloc =
    match
      Insp.Solve.run_graph ~seed:1 Insp.Solve.sbu g inst.Insp.Instance.platform
    with
    | Ok o -> o.Insp.Solve.alloc
    | Error f -> failwith (Insp.Solve.failure_message f)
  in
  let t0 = Unix.gettimeofday () in
  let hardened, recorder =
    Insp.Obs.with_sink (fun () ->
        match
          Insp.Redundancy.harden ~k:1 g inst.Insp.Instance.platform alloc
        with
        | Ok hd ->
          Insp.Obs.gauge "faults.frontier.base_cost" hd.Insp.Redundancy.base_cost;
          Insp.Obs.gauge "faults.frontier.cost" hd.Insp.Redundancy.cost;
          Some hd
        | Error _ -> None)
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  (match hardened with
  | Some hd ->
    Printf.printf "K=1: %d spare(s), $%.0f over $%.0f base in %.2f s\n%!"
      hd.Insp.Redundancy.spares hd.Insp.Redundancy.cost
      hd.Insp.Redundancy.base_cost wall_s
  | None -> Printf.printf "K=1: hardening failed in %.2f s\n%!" wall_s);
  ("faults.k1_frontier", wall_s, recorder)

(* ------------------------------------------------------------------ *)
(* Lint wall time: per-file rules plus the whole-program deep pass      *)

(* A synthetic row so bench-compare catches analysis slowdowns — the
   deep pass (cmt load, call graph, effects, T1–T3) is bounded at ~2 s
   for the whole repo (DESIGN.md §14).  The finding count rides along:
   nonzero means the tree no longer lints clean.  Runs on whatever
   typedtrees the surrounding build left under _build; without any
   (bare source checkout) the deep half is skipped. *)
let lint_entry ~quick:_ () =
  line "lint (per-file rules + whole-program T1-T3)";
  let roots = List.filter Sys.file_exists [ "lib"; "bin"; "bench"; "test" ] in
  let t0 = Unix.gettimeofday () in
  let shallow = Insp_lint.Driver.lint_roots roots in
  let deep, units =
    match Insp_lint.Cmt_loader.load ~root:"_build/default" () with
    | loaded ->
      let findings =
        Insp_lint.Deep.analyze (Insp_lint.Callgraph.build loaded)
        |> List.filter (fun f ->
               List.exists
                 (fun r ->
                   String.starts_with ~prefix:(r ^ "/") f.Insp_lint.Rule.file)
                 roots)
      in
      (findings, List.length loaded.Insp_lint.Cmt_loader.units)
    | exception Insp_lint.Cmt_loader.Cmt_error _ -> ([], 0)
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  let findings = List.length shallow + List.length deep in
  Printf.printf "%d finding(s) over %d compilation units in %.2f s\n%!"
    findings units wall_s;
  let recorder = Insp.Obs.create () in
  let m = recorder.Insp.Obs.metrics in
  Insp.Obs_metrics.incr ~by:findings m "lint.findings";
  Insp.Obs_metrics.incr ~by:units m "lint.units";
  ("lint.full_repo", wall_s, recorder)

let solve_suite inst () =
  ignore
    (Insp.Solve.run_all ~seed:1 inst.Insp.Instance.app
       inst.Insp.Instance.platform)

let bench_tests () =
  let fig2a_inst = fixed_instance () in
  let fig2b_inst = fixed_instance ~alpha:1.7 () in
  let fig3_inst = fixed_instance ~alpha:1.5 () in
  let large_inst = fixed_instance ~n:30 ~sizes:Insp.Config.Large () in
  let lowfreq_inst = fixed_instance ~freq:Insp.Config.Low () in
  let rates_inst = Insp.Instance.with_frequency (fixed_instance ()) 0.1 in
  let ilp_inst =
    Insp.Instance.homogeneous (fixed_instance ~n:10 ()) ~cpu_index:4
      ~nic_index:3
  in
  let sim_alloc =
    let inst = fixed_instance ~n:30 () in
    match
      Insp.Solve.run ~seed:1 Insp.Solve.sbu inst.Insp.Instance.app
        inst.Insp.Instance.platform
    with
    | Ok o -> (inst, o.Insp.Solve.alloc)
    | Error f -> failwith (Insp.Solve.failure_message f)
  in
  [
    Test.make ~name:"fig2a: heuristic suite, N=60 a=0.9"
      (Staged.stage (solve_suite fig2a_inst));
    Test.make ~name:"fig2b: heuristic suite, N=60 a=1.7"
      (Staged.stage (solve_suite fig2b_inst));
    Test.make ~name:"fig3: heuristic suite, N=60 a=1.5"
      (Staged.stage (solve_suite fig3_inst));
    Test.make ~name:"large: heuristic suite, N=30 large objects"
      (Staged.stage (solve_suite large_inst));
    Test.make ~name:"lowfreq: heuristic suite, N=60 f=1/50"
      (Staged.stage (solve_suite lowfreq_inst));
    Test.make ~name:"rates: heuristic suite, N=60 f=1/10"
      (Staged.stage (solve_suite rates_inst));
    Test.make ~name:"ilp: exact B&B, N=10 homogeneous"
      (Staged.stage (fun () ->
           ignore
             (Insp.Exact.solve ~node_limit:200_000
                (Insp.Graph.of_app ilp_inst.Insp.Instance.app)
                ilp_inst.Insp.Instance.platform)));
    Test.make ~name:"sharing: CSE + DAG placement, 3 apps of N=20"
      (Staged.stage (fun () ->
           let apps, platform =
             Insp.Multi_workload.instance ~seed:1 ~n_apps:3 ~n_operators:20
           in
           ignore (Insp.Dag_place.run (Insp.Cse.share_apps apps) platform)));
    Test.make ~name:"rewrite: hill-climb over shapes, N=12"
      (Staged.stage (fun () ->
           let inst =
             Insp.Instance.generate
               (Insp.Config.make ~n_operators:12 ~alpha:1.4 ~seed:1 ())
           in
           let evaluate tree =
             let app =
               Insp.App.make ~base_work:8000.0 ~work_factor:0.19 ~tree
                 ~objects:(Insp.App.objects inst.Insp.Instance.app)
                 ~alpha:1.4 ()
             in
             match
               Insp.Solve.run ~seed:1 Insp.Solve.sbu app
                 inst.Insp.Instance.platform
             with
             | Ok o -> Some o.Insp.Solve.cost
             | Error _ -> None
           in
           ignore
             (Insp.Rewrite.optimize (Insp.Prng.create 1) ~evaluate
                (Insp.App.tree inst.Insp.Instance.app))));
    Test.make ~name:"replication: heuristic suite, 2 copies"
      (Staged.stage (fun () ->
           let inst =
             Insp.Instance.generate
               (Insp.Config.make ~n_operators:40 ~min_copies:2 ~max_copies:2
                  ~seed:1 ())
           in
           ignore
             (Insp.Solve.run_all ~seed:1 inst.Insp.Instance.app
                inst.Insp.Instance.platform)));
    Test.make ~name:"simcheck: DES run, N=30, 20 s horizon"
      (Staged.stage (fun () ->
           let inst, alloc = sim_alloc in
           ignore
             (Insp.Runtime.run ~horizon:20.0 ~warmup:5.0
                inst.Insp.Instance.app inst.Insp.Instance.platform alloc)));
    Test.make ~name:"catalog: cheapest_satisfying lookup"
      (Staged.stage (fun () ->
           ignore
             (Insp.Catalog.cheapest_satisfying Insp.Catalog.dell_2008
                ~speed:20000.0 ~bandwidth:400.0)));
  ]

let run_benchmarks () =
  line "bechamel micro-benchmarks (one per experiment)";
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let results = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ time_per_run ] ->
            Printf.printf "%-45s %12.1f us/run\n%!" name (time_per_run /. 1e3)
          | Some _ | None -> Printf.printf "%-45s (no estimate)\n%!" name)
        results)
    (bench_tests ())

(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let quick = List.mem "--quick" args in
  let rec split_opt flag acc = function
    | f :: v :: rest when f = flag -> (Some v, List.rev_append acc rest)
    | a :: rest -> split_opt flag (a :: acc) rest
    | [] -> (None, List.rev acc)
  in
  let json_file, args = split_opt "--json" [] args in
  let jobs_arg, args = split_opt "--jobs" [] args in
  let jobs =
    match jobs_arg with
    | None -> 1
    | Some v -> (
      match int_of_string_opt v with
      | Some j when j >= 1 -> j
      | Some _ | None ->
        prerr_endline "bench: --jobs must be a positive integer";
        exit 2)
  in
  let ids = List.filter (fun a -> a <> "--quick") args in
  let ids =
    if ids = [] then Insp.Suite.all_ids @ [ "catalog" ] else ids
  in
  let results = List.filter_map (run_experiment ~quick ~jobs) ids in
  (* Thunks, run left to right: a list literal's elements are evaluated
     right to left, which would run the rows in reverse order. *)
  let results =
    results
    @ List.map
        (fun row -> row ())
        [
          journal_overhead_entry ~quick;
          serve_entry ~quick;
          faults_repair_entry ~quick;
          faults_frontier_entry ~quick;
          lint_entry ~quick;
          probe_throughput_entry ~quick;
          scale_entry ~n:10_000 ~heuristic:"comp" ~budget_s:1.0 "scale.10k";
          (* runs under --quick too, so its hard wall gate is part of the
             committed BENCH_insp.json; ~1.5x headroom over the measured
             solve for VM phase noise *)
          scale_entry ~n:100_000 ~heuristic:"comp" ~budget_s:0.6 "scale.100k";
          (* Subtree-Bottom-Up, the paper's best heuristic: 5x the
             Comp-Greedy row's wall budget; 32.59M minor words measured,
             +2% *)
          scale_entry ~n:100_000 ~heuristic:"sbu" ~budget_s:3.0
            ~budget_words:33_243_000.0 "scale.100k.sbu";
          (* Random, whose pick reads an index over the unassigned ids:
             5x the Comp-Greedy row's wall budget; 36.17M minor words
             measured, +2% *)
          scale_entry ~n:100_000 ~heuristic:"random" ~budget_s:3.0
            ~budget_words:36_891_000.0 "scale.100k.random";
          (* minor words are deterministic, so the hard alloc gate belongs
             in the committed BENCH_insp.json; 4.28M measured, +2% *)
          alloc_entry ~n:100_000 ~budget_words:4_364_000.0 "alloc.100k";
          alloc_serve_entry ~quick;
          alloc_multi_entry;
          ilp_dag_entry;
          sim_scale_entry;
          sim_dag_entry;
        ]
  in
  (match json_file with
  | Some file ->
    Insp.Obs_export.save file (bench_json ~quick results);
    Printf.printf "\nwrote %s\n%!" file
  | None -> ());
  if List.length ids > 1 then begin
    summarize_rankings ~quick ();
    run_ablations ~quick ()
  end;
  run_probe_bench ~quick ();
  run_benchmarks ();
  print_newline ()
