(* insp — command-line front end for the in-network stream processing
   resource-allocation toolkit. *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Shared options                                                      *)

let n_operators =
  let doc = "Number of operators in the random tree." in
  Arg.(value & opt int 60 & info [ "n"; "operators" ] ~docv:"N" ~doc)

let alpha =
  let doc = "Computation factor alpha (w = base + factor*(dl+dr)^alpha)." in
  Arg.(value & opt float 0.9 & info [ "a"; "alpha" ] ~docv:"ALPHA" ~doc)

let seed =
  let doc = "Random seed (instance and randomized heuristics)." in
  Arg.(value & opt int 1 & info [ "s"; "seed" ] ~docv:"SEED" ~doc)

let sizes =
  let doc = "Object size regime: $(b,small) (5-30 MB) or $(b,large) \
             (450-530 MB)." in
  let regime =
    Arg.enum [ ("small", Insp.Config.Small); ("large", Insp.Config.Large) ]
  in
  Arg.(
    value & opt regime Insp.Config.Small & info [ "sizes" ] ~docv:"REGIME" ~doc)

let freq =
  let doc = "Download frequency: $(b,high) (1/2s), $(b,low) (1/50s) or a \
             float in 1/s." in
  let parse s =
    match String.lowercase_ascii s with
    | "high" -> Ok Insp.Config.High
    | "low" -> Ok Insp.Config.Low
    | other -> (
      match float_of_string_opt other with
      | Some f when f > 0.0 -> Ok (Insp.Config.Custom f)
      | Some _ | None -> Error (`Msg "expected high, low or a positive float"))
  in
  let print ppf = function
    | Insp.Config.High -> Format.pp_print_string ppf "high"
    | Insp.Config.Low -> Format.pp_print_string ppf "low"
    | Insp.Config.Custom f -> Format.fprintf ppf "%g" f
  in
  Arg.(
    value
    & opt (conv (parse, print)) Insp.Config.High
    & info [ "freq" ] ~docv:"FREQ" ~doc)

let heuristic_arg =
  let doc =
    "Heuristic: random, comp, comm, sbu, objgroup, objavail or $(b,all)."
  in
  Arg.(value & opt string "all" & info [ "H"; "heuristic" ] ~docv:"NAME" ~doc)

let make_instance n alpha sizes freq seed =
  Insp.Instance.generate
    (Insp.Config.make ~n_operators:n ~alpha ~sizes ~freq ~seed ())

(* ------------------------------------------------------------------ *)
(* Observability and exit codes                                        *)

let trace_arg =
  let doc =
    "Write the run's span tree as Chrome trace_event JSON (open in \
     chrome://tracing or ui.perfetto.dev)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc = "Write the run's counters, gauges and histograms as CSV." in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let profile_arg =
  let doc =
    "Profile allocation by span and write $(docv).report (top span paths \
     by self minor words), $(docv).csv (all GC metrics), and \
     $(docv).alloc.folded / $(docv).time.folded flamegraph folded stacks \
     (inferno, speedscope, flamegraph.pl).  Off = zero cost: spans skip \
     the Gc reads entirely."
  in
  Arg.(value & opt (some string) None & info [ "profile" ] ~docv:"BASE" ~doc)

let exit_infeasible = 1
let exit_unknown_name = 2

let exits =
  Cmd.Exit.info exit_infeasible ~doc:"no feasible mapping was found."
  :: Cmd.Exit.info exit_unknown_name
       ~doc:"an unknown heuristic or experiment name was given."
  :: Cmd.Exit.defaults

let write_prof base recorder =
  Insp.Obs_export.save (base ^ ".report")
    (Insp.Obs_export.prof_report recorder);
  Insp.Obs_export.save (base ^ ".csv") (Insp.Obs_export.prof_csv recorder);
  Insp.Obs_export.save (base ^ ".alloc.folded")
    (Insp.Obs_export.prof_folded_alloc recorder);
  Insp.Obs_export.save (base ^ ".time.folded")
    (Insp.Obs_export.prof_folded_time recorder);
  Format.printf
    "wrote allocation profile to %s.{report,csv,alloc.folded,time.folded}@."
    base

(* Write the requested Chrome trace, metrics CSV and allocation profile
   of a filled sink. *)
let export_obs ~trace ~metrics ~profile recorder =
  Option.iter
    (fun path ->
      Insp.Obs_export.save path (Insp.Obs_export.chrome_trace recorder);
      Format.printf "wrote Chrome trace to %s@." path)
    trace;
  Option.iter
    (fun path ->
      Insp.Obs_export.save path (Insp.Obs_export.metrics_csv recorder);
      Format.printf "wrote metrics CSV to %s@." path)
    metrics;
  Option.iter (fun base -> write_prof base recorder) profile

(* Run [f] under a fresh observability sink when an export was requested;
   otherwise the engines' instrumentation stays a no-op. *)
let with_obs ~trace ~metrics ?(profile = None) f =
  if trace = None && metrics = None && profile = None then f ()
  else begin
    let code, recorder =
      Insp.Obs.with_sink ~profile:(profile <> None) f
    in
    export_obs ~trace ~metrics ~profile recorder;
    code
  end

(* Continue with the heuristic named [key], or report it unknown and
   exit 2. *)
let find_heuristic key k =
  match Insp.Solve.find key with
  | Some h -> k h
  | None ->
    prerr_endline ("unknown heuristic: " ^ key);
    exit_unknown_name

(* [find_heuristic], where ["all"] names every heuristic. *)
let find_heuristics key k =
  if key = "all" then k Insp.Solve.all
  else find_heuristic key (fun h -> k [ h ])

(* Commands that run one heuristic read ["all"] (the default) as the
   paper's best performer. *)
let single_key key = if key = "all" then "sbu" else key

(* ------------------------------------------------------------------ *)
(* Decision journal helpers                                            *)

module Journal = Insp.Obs_journal

let journal_depth_arg =
  let doc =
    "Cap per hot event category (DES scheduling, LP branching) in the \
     decision journal; the cutoff is marked with a truncated event."
  in
  Arg.(
    value
    & opt int Journal.default_depth
    & info [ "journal-depth" ] ~docv:"N" ~doc)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Run the heuristics [hs] under a journaling sink and return the
   outcomes plus the recorder, whose journal carries a manifest.  The manifest
   makes the journal self-describing: same file, years later, still
   names the instance it explains. *)
let journaled_solve ~n ~alpha ~sizes ~freq ~seed ~heuristic ~depth hs =
  let cfg = Insp.Config.make ~n_operators:n ~alpha ~sizes ~freq ~seed () in
  let inst = Insp.Instance.generate cfg in
  let results, recorder =
    Insp.Obs.with_sink ~journal:true ~journal_depth:depth (fun () ->
        List.map
          (fun (h : Insp.Solve.heuristic) ->
            ( h,
              Insp.Solve.run ~seed h inst.Insp.Instance.app
                inst.Insp.Instance.platform ))
          hs)
  in
  Journal.set_manifest recorder.Insp.Obs.journal
    {
      Journal.m_seed = seed;
      m_config_hash =
        Journal.hash_hex (Format.asprintf "%a" Insp.Config.pp cfg);
      m_heuristic = heuristic;
      m_args =
        [
          ("n", string_of_int n);
          ("alpha", Printf.sprintf "%g" alpha);
          ( "sizes",
            match sizes with
            | Insp.Config.Small -> "small"
            | Insp.Config.Large -> "large"
            | Insp.Config.Custom_sizes (lo, hi) ->
              Printf.sprintf "custom(%g..%g)" lo hi );
          ( "freq",
            match freq with
            | Insp.Config.High -> "high"
            | Insp.Config.Low -> "low"
            | Insp.Config.Custom f -> Printf.sprintf "%g" f );
          ("journal-depth", string_of_int depth);
        ];
    };
  (results, recorder)

let solve_exit_code results =
  if List.exists (fun (_, r) -> Result.is_ok r) results then 0
  else exit_infeasible

let print_divergence (d : Journal.divergence) =
  List.iter (fun l -> Format.printf "  %s@." l) d.Journal.div_context;
  let side tag = function
    | Some l -> Format.printf "%s %s@." tag l
    | None -> Format.printf "%s <end of journal>@." tag
  in
  side "<" d.Journal.div_left;
  side ">" d.Journal.div_right;
  Format.printf "first divergence at line %d@." d.Journal.div_line

let write_journal path recorder =
  let journal = recorder.Insp.Obs.journal in
  Insp.Obs_export.save path (Journal.to_jsonl journal);
  Format.printf "wrote decision journal to %s (%d events)@." path
    (Journal.length journal)

(* [--verify] of a command whose [once ()] runs it under a journaling
   sink: run it again and require the journal, then the [part] that
   [render] prints, to equal the first run's byte for byte.  Exit 0 if
   they do, 1 at the first divergence. *)
let verify_rerun ~cmd ~part ~render once (first, recorder) =
  let jsonl r = Journal.to_jsonl r.Insp.Obs.journal in
  let second, recorder2 = once () in
  let failed what d =
    Format.printf "%s verify: FAILED (%s)@." cmd what;
    print_divergence d;
    exit_infeasible
  in
  match Journal.diff (jsonl recorder) (jsonl recorder2) with
  | Some d -> failed "journal" d
  | None -> (
    match Journal.diff (render first) (render second) with
    | Some d -> failed part d
    | None ->
      Format.printf "%s verify: OK (%d journal events, byte-identical)@." cmd
        (Journal.length recorder.Insp.Obs.journal);
      0)

(* ------------------------------------------------------------------ *)
(* solve                                                               *)

let print_outcomes inst results verbose =
  let table =
    Insp.Table.create
      [
        ("heuristic", Insp.Table.Left);
        ("cost ($)", Insp.Table.Right);
        ("processors", Insp.Table.Right);
        ("status", Insp.Table.Left);
      ]
  in
  List.iter
    (fun ((h : Insp.Solve.heuristic), r) ->
      match r with
      | Ok (o : Insp.Solve.outcome) ->
        Insp.Table.add_row table
          [
            h.name;
            Printf.sprintf "%.0f" o.cost;
            string_of_int o.n_procs;
            "feasible";
          ]
      | Error f ->
        Insp.Table.add_row table
          [ h.name; "-"; "-"; Insp.Solve.failure_message f ])
    results;
  Insp.Table.print table;
  if verbose then
    List.iter
      (fun ((h : Insp.Solve.heuristic), r) ->
        match r with
        | Ok (o : Insp.Solve.outcome) ->
          Format.printf "@.%s:@.%a@." h.name Insp.Alloc.pp o.alloc
        | Error _ -> ())
      results;
  ignore inst

(* With a sink installed, also drive the simulator and the LP relaxation
   on the solved instance, so one `solve --trace/--metrics` run records
   all three engines (heuristics, LP, simulator). *)
let obs_diagnostics inst results =
  let feasible =
    List.filter_map
      (fun (_, r) -> match r with Ok o -> Some o | Error _ -> None)
      results
  in
  match feasible with
  | [] -> ()
  | first :: rest ->
    let best =
      List.fold_left
        (fun (b : Insp.Solve.outcome) o ->
          if o.Insp.Solve.cost < b.Insp.Solve.cost then o else b)
        first rest
    in
    ignore (Insp.simulate ~horizon:40.0 inst best.Insp.Solve.alloc);
    if Insp.App.n_operators inst.Insp.Instance.app <= 30 then
      Insp.Obs.span "lp.relaxation" (fun () ->
          let homog =
            Insp.Instance.homogeneous inst ~cpu_index:4 ~nic_index:3
          in
          let model =
            Insp.Ilp_model.build homog.Insp.Instance.app
              homog.Insp.Instance.platform
              ~max_procs:best.Insp.Solve.n_procs
          in
          Option.iter (Insp.Obs.gauge "lp.relaxation.bound")
            (Insp.Ilp_model.lower_bound model))

let solve_cmd =
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print allocations.")
  in
  let dot =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot" ] ~docv:"FILE" ~doc:"Write the operator tree as DOT.")
  in
  let scale =
    Arg.(
      value & flag
      & info [ "scale" ]
          ~doc:
            "Generate the 100k-class scale preset (tiny objects, \
             Config.scale) instead of the paper generator; $(b,-n) still \
             sets the operator count.  This is the instance family behind \
             the scale.* and alloc.* bench rows, so $(b,--scale \
             --profile) reproduces their allocation profile.")
  in
  let run n alpha sizes freq seed heuristic verbose dot trace metrics profile
      scale =
    with_obs ~trace ~metrics ~profile @@ fun () ->
    let inst =
      if scale then
        Insp.Instance.generate (Insp.Config.scale ~seed ~n_operators:n ())
      else make_instance n alpha sizes freq seed
    in
    Format.printf "%a@.@." Insp.Instance.pp inst;
    (match dot with
    | Some path ->
      Insp.Dot.save (Insp.Dot.of_app inst.Insp.Instance.app) path;
      Format.printf "wrote %s@." path
    | None -> ());
    find_heuristics heuristic @@ fun hs ->
    let results =
      List.map
        (fun h ->
          ( h,
            Insp.Solve.run ~seed h inst.Insp.Instance.app
              inst.Insp.Instance.platform ))
        hs
    in
    print_outcomes inst results verbose;
    (* Scale-preset runs skip the simulator/LP diagnostics: a DES pass
       over a 10k-operator allocation allocates ~1000x the solve itself
       and would drown the allocation profile `make prof` is after. *)
    if Insp.Obs.enabled () && not scale then obs_diagnostics inst results;
    solve_exit_code results
  in
  let term =
    Term.(
      const run $ n_operators $ alpha $ sizes $ freq $ seed $ heuristic_arg
      $ verbose $ dot $ trace_arg $ metrics_arg $ profile_arg $ scale)
  in
  Cmd.v
    (Cmd.info "solve" ~exits
       ~doc:"Run placement heuristics on a random instance.")
    term

(* ------------------------------------------------------------------ *)
(* simulate                                                            *)

let simulate_cmd =
  let horizon =
    Arg.(
      value & opt float 80.0
      & info [ "horizon" ] ~docv:"SECONDS" ~doc:"Simulated seconds.")
  in
  let run n alpha sizes freq seed heuristic horizon trace metrics =
    with_obs ~trace ~metrics @@ fun () ->
    let inst = make_instance n alpha sizes freq seed in
    find_heuristic (single_key heuristic) @@ fun h ->
    match
      Insp.Solve.run ~seed h inst.Insp.Instance.app inst.Insp.Instance.platform
    with
    | Error f ->
      prerr_endline (Insp.Solve.failure_message f);
      exit_infeasible
    | Ok o ->
      Format.printf "%s found %d processors for $%.0f@." h.name o.n_procs
        o.cost;
      let report = Insp.simulate ~horizon inst o.alloc in
      Format.printf "%a@." Insp.Runtime.pp_report report;
      Format.printf "sustains target: %b@."
        (Insp.Runtime.sustains_target report);
      0
  in
  let term =
    Term.(
      const run $ n_operators $ alpha $ sizes $ freq $ seed $ heuristic_arg
      $ horizon $ trace_arg $ metrics_arg)
  in
  Cmd.v
    (Cmd.info "simulate" ~exits
       ~doc:"Solve, then execute the mapping in the discrete-event runtime.")
    term

(* ------------------------------------------------------------------ *)
(* sweep                                                               *)

let sweep_cmd =
  let experiment =
    let doc =
      "Experiment id: " ^ String.concat ", " Insp.Suite.all_ids ^ ", or all."
    in
    Arg.(value & pos 0 string "all" & info [] ~docv:"EXPERIMENT" ~doc)
  in
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Fewer seeds and points.")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Run sweep cells on $(docv) domains.  Output is identical for \
             every value (deterministic static partition).")
  in
  let run experiment quick seed jobs trace metrics profile =
    if jobs < 1 then begin
      prerr_endline "insp: --jobs must be >= 1";
      exit_unknown_name
    end
    else
      with_obs ~trace ~metrics ~profile @@ fun () ->
      let ids =
        if experiment = "all" then Insp.Suite.all_ids else [ experiment ]
      in
      List.fold_left
        (fun code id ->
          if code <> 0 then code
          else
            match Insp.Suite.run_by_id ~quick ~seed ~jobs id with
            | Some s ->
              print_string s;
              print_newline ();
              0
            | None ->
              prerr_endline ("unknown experiment: " ^ id);
              exit_unknown_name)
        0 ids
  in
  let term =
    Term.(
      const run $ experiment $ quick $ seed $ jobs $ trace_arg $ metrics_arg
      $ profile_arg)
  in
  Cmd.v
    (Cmd.info "sweep" ~exits
       ~doc:"Reproduce a paper experiment (table/figure).")
    term

(* ------------------------------------------------------------------ *)
(* exact                                                               *)

let exact_cmd =
  let cpu =
    Arg.(
      value & opt int 4
      & info [ "cpu" ] ~docv:"IDX" ~doc:"Homogeneous CPU option (0-4).")
  in
  let nic =
    Arg.(
      value & opt int 3
      & info [ "nic" ] ~docv:"IDX" ~doc:"Homogeneous NIC option (0-4).")
  in
  let run n alpha seed cpu nic trace metrics =
    with_obs ~trace ~metrics @@ fun () ->
    let inst =
      Insp.Instance.homogeneous
        (make_instance n alpha Insp.Config.Small Insp.Config.High seed)
        ~cpu_index:cpu ~nic_index:nic
    in
    let exact_code =
      match
        Insp.Exact.solve
          (Insp.Graph.of_app inst.Insp.Instance.app)
          inst.Insp.Instance.platform
      with
      | Ok r ->
        Format.printf
          "exact optimum: %d processors, $%.0f (%s, %d nodes explored)@."
          r.Insp.Exact.n_procs r.cost
          (if r.proven then "proven" else "node limit hit")
          r.nodes;
        0
      | Error e ->
        Format.printf "exact: %s@." e;
        exit_infeasible
    in
    List.iter
      (fun ((h : Insp.Solve.heuristic), r) ->
        match r with
        | Ok (o : Insp.Solve.outcome) ->
          Format.printf "%-20s %d processors, $%.0f@." h.name o.n_procs o.cost
        | Error f ->
          Format.printf "%-20s %s@." h.name (Insp.Solve.failure_message f))
      (Insp.Solve.run_all ~seed inst.Insp.Instance.app
         inst.Insp.Instance.platform);
    exact_code
  in
  let term =
    Term.(
      const run $ n_operators $ alpha $ seed $ cpu $ nic $ trace_arg
      $ metrics_arg)
  in
  Cmd.v
    (Cmd.info "exact" ~exits
       ~doc:
         "Exact branch-and-bound optimum on a homogeneous platform, compared \
          with the heuristics.")
    term

(* ------------------------------------------------------------------ *)
(* multi                                                               *)

let multi_cmd =
  let n_apps =
    Arg.(
      value & opt int 3
      & info [ "apps" ] ~docv:"Q" ~doc:"Number of concurrent applications.")
  in
  let run n seed n_apps =
    let apps, platform =
      Insp.Multi_workload.instance ~seed ~n_apps ~n_operators:n
    in
    Format.printf "%a@.@." Insp.Cse.pp_savings (Insp.Cse.savings apps);
    let provision name dag =
      match Insp.Dag_place.run dag platform with
      | Ok o ->
        Format.printf "%-12s $%-9.0f (%d processors)@." name o.cost o.n_procs
      | Error f ->
        Format.printf "%-12s %s@." name (Insp.Dag_place.failure_message f)
    in
    provision "no sharing" (Insp.Dag.of_apps apps);
    provision "CSE sharing" (Insp.Cse.share_apps apps);
    0
  in
  let term = Term.(const run $ n_operators $ seed $ n_apps) in
  Cmd.v
    (Cmd.info "multi"
       ~doc:
         "Provision several concurrent applications, with and without \
          common-subexpression sharing.")
    term

(* ------------------------------------------------------------------ *)
(* rewrite                                                             *)

let rewrite_cmd =
  let restarts =
    Arg.(
      value & opt int 3
      & info [ "restarts" ] ~docv:"R" ~doc:"Hill-climbing random restarts.")
  in
  let run n alpha seed restarts =
    let inst =
      Insp.Instance.generate (Insp.Config.make ~n_operators:n ~alpha ~seed ())
    in
    let platform = inst.Insp.Instance.platform in
    let objects = Insp.App.objects inst.Insp.Instance.app in
    let evaluate tree =
      let app =
        Insp.App.make ~base_work:8000.0 ~work_factor:0.19 ~tree ~objects
          ~alpha ()
      in
      match Insp.Solve.run ~seed Insp.Solve.sbu app platform with
      | Ok o -> Some o.Insp.Solve.cost
      | Error _ -> None
    in
    let show name tree =
      match evaluate tree with
      | Some c ->
        Format.printf "%-12s height %-3d $%.0f@." name
          (Insp.Optree.height tree) c
      | None ->
        Format.printf "%-12s height %-3d infeasible@." name
          (Insp.Optree.height tree)
    in
    let original = Insp.App.tree inst.Insp.Instance.app in
    show "original" original;
    show "left-deep" (Insp.Rewrite.left_deep_of original);
    show "balanced" (Insp.Rewrite.balanced_of original);
    let best, cost =
      Insp.Rewrite.optimize (Insp.Prng.create seed) ~evaluate ~restarts
        original
    in
    (match cost with
    | Some c ->
      Format.printf "%-12s height %-3d $%.0f@." "optimized"
        (Insp.Optree.height best) c
    | None -> Format.printf "optimized    infeasible@.");
    0
  in
  let term = Term.(const run $ n_operators $ alpha $ seed $ restarts) in
  Cmd.v
    (Cmd.info "rewrite"
       ~doc:
         "Search equivalent operator-tree shapes (associativity/\
          commutativity) for a cheaper provisioning.")
    term

(* ------------------------------------------------------------------ *)
(* serve                                                               *)

let print_serve_summary state =
  let table =
    Insp.Table.create
      ~title:
        (Printf.sprintf "serve: %s tenancy"
           (Insp.Serve.tenancy_label (Insp.Serve.params state).Insp.Serve.tenancy))
      [
        ("tenant", Insp.Table.Left);
        ("admitted", Insp.Table.Right);
        ("rejected", Insp.Table.Right);
        ("reject %", Insp.Table.Right);
        ("departed", Insp.Table.Right);
        ("live", Insp.Table.Right);
        ("purchased ($)", Insp.Table.Right);
        ("refunded ($)", Insp.Table.Right);
        ("net ($)", Insp.Table.Right);
      ]
  in
  let row label (s : Insp.Serve.tenant_summary) =
    Insp.Table.add_row table
      [
        label;
        string_of_int s.Insp.Serve.admitted;
        string_of_int s.rejected;
        Printf.sprintf "%.1f" (100.0 *. Insp.Serve.rejection_rate s);
        string_of_int s.departed;
        string_of_int s.live;
        Printf.sprintf "%.0f" s.purchased;
        Printf.sprintf "%.0f" s.refunded;
        Printf.sprintf "%.0f" s.net_cost;
      ]
  in
  List.iter
    (fun (s : Insp.Serve.tenant_summary) ->
      row (string_of_int s.Insp.Serve.tenant) s)
    (Insp.Serve.summary state);
  Insp.Table.add_separator table;
  row "all" (Insp.Serve.totals state);
  Insp.Table.print table

let serve_cmd =
  let apps =
    Arg.(
      value & opt int 1000
      & info [ "apps" ] ~docv:"N" ~doc:"Applications in the event stream.")
  in
  let tenants =
    Arg.(value & opt int 4 & info [ "tenants" ] ~docv:"T" ~doc:"Tenant count.")
  in
  let tenancy =
    let doc =
      "Tenancy model: $(b,shared) (one pool) or $(b,static) (fixed 1/T \
       partition of processors and server cards per tenant)."
    in
    let model =
      Arg.enum
        [ ("shared", Insp.Serve.Shared); ("static", Insp.Serve.Static_slicing) ]
    in
    Arg.(value & opt model Insp.Serve.Shared & info [ "tenancy" ] ~docv:"MODEL" ~doc)
  in
  let proc_budget =
    Arg.(
      value & opt int 96
      & info [ "proc-budget" ] ~docv:"P"
          ~doc:"Platform-wide cap on concurrently allocated processors.")
  in
  let card_scale =
    Arg.(
      value & opt float 1.0
      & info [ "card-scale" ] ~docv:"F"
          ~doc:"Scale server card bandwidths (values below 1 make cards a \
                contended resource under co-tenancy).")
  in
  let resale =
    Arg.(
      value & opt float 0.5
      & info [ "resale" ] ~docv:"F"
          ~doc:"Fraction of an application's cost refunded on departure.")
  in
  let reopt =
    Arg.(
      value & flag
      & info [ "reopt" ]
          ~doc:"Re-optimize the departing tenant's survivors after each \
                departure.")
  in
  let journal_out =
    Arg.(
      value & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:"Write the admit/reject/depart decision journal (canonical \
                JSONL).")
  in
  let dump_out =
    Arg.(
      value & opt (some string) None
      & info [ "dump" ] ~docv:"FILE"
          ~doc:"Write the canonical final-state dump (live applications, \
                residual capacity, accounts).")
  in
  let verify =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:"Run the stream twice and require byte-identical journals and \
                state dumps.")
  in
  let run seed apps tenants tenancy proc_budget card_scale resale reopt
      heuristic journal_out dump_out verify trace metrics profile =
    let key = single_key heuristic in
    find_heuristic key @@ fun h ->
    let spec =
      Insp.Serve_stream.make ~n_apps:apps ~n_tenants:tenants ~seed ()
    in
    let params =
      Insp.Serve.make_params
        ~base:(Insp.Config.make ~n_operators:60 ~seed ())
        ~tenancy ~n_tenants:tenants ~proc_budget ~card_scale ~heuristic:h
        ~resale ~reoptimize:reopt ()
    in
    let events = Insp.Serve_stream.events spec in
    let once () =
      let state, recorder =
        Insp.Obs.with_sink ~journal:true ~profile:(profile <> None)
          (fun () -> Insp.Serve.run params events)
      in
      Journal.set_manifest recorder.Insp.Obs.journal
        {
          Journal.m_seed = seed;
          m_config_hash =
            Journal.hash_hex
              (Format.asprintf "%a" Insp.Config.pp params.Insp.Serve.base);
          m_heuristic = key;
          m_args =
            [
              ("apps", string_of_int apps);
              ("tenants", string_of_int tenants);
              ("tenancy", Insp.Serve.tenancy_label tenancy);
              ("proc-budget", string_of_int proc_budget);
              ("card-scale", Printf.sprintf "%g" card_scale);
              ("resale", Printf.sprintf "%g" resale);
              ("reopt", string_of_bool reopt);
            ];
        };
      (state, recorder)
    in
    let ((state, recorder) as run) = once () in
    let verify_code =
      if verify then
        verify_rerun ~cmd:"serve" ~part:"state dump"
          ~render:Insp.Serve.dump_state once run
      else 0
    in
    print_serve_summary state;
    Option.iter (fun path -> write_journal path recorder) journal_out;
    Option.iter
      (fun path ->
        Insp.Obs_export.save path (Insp.Serve.dump_state state);
        Format.printf "wrote state dump to %s@." path)
      dump_out;
    export_obs ~trace ~metrics ~profile recorder;
    verify_code
  in
  let term =
    Term.(
      const run $ seed $ apps $ tenants $ tenancy $ proc_budget $ card_scale
      $ resale $ reopt $ heuristic_arg $ journal_out $ dump_out $ verify
      $ trace_arg $ metrics_arg $ profile_arg)
  in
  Cmd.v
    (Cmd.info "serve" ~exits
       ~doc:
         "Run the persistent multi-tenant allocation service over a \
          deterministic stream of application arrivals and departures \
          (admission control, sell-back, per-tenant accounting).")
    term

(* ------------------------------------------------------------------ *)
(* faults                                                              *)

let print_fault_episodes (report : Insp.Fault_engine.report) =
  let table =
    Insp.Table.create ~title:"fault timeline"
      [
        ("t", Insp.Table.Right);
        ("fault", Insp.Table.Left);
        ("downtime (s)", Insp.Table.Right);
        ("realloc ($)", Insp.Table.Right);
        ("mig", Insp.Table.Right);
        ("rebuy", Insp.Table.Right);
        ("dip", Insp.Table.Right);
        ("recovery (s)", Insp.Table.Right);
      ]
  in
  List.iter
    (fun (ep : Insp.Fault_engine.episode) ->
      Insp.Table.add_row table
        [
          Printf.sprintf "%.1f" ep.Insp.Fault_engine.ep_t;
          ep.ep_label;
          Printf.sprintf "%.1f" ep.ep_downtime;
          Printf.sprintf "%.0f" ep.ep_cost;
          string_of_int ep.ep_migrations;
          string_of_int ep.ep_rebuys;
          (match ep.ep_dip with
          | Some d -> Printf.sprintf "%.0f%%" (100.0 *. d)
          | None -> "-");
          (match ep.ep_recovery with
          | Some r -> Printf.sprintf "%.1f" r
          | None -> "-");
        ])
    report.Insp.Fault_engine.episodes;
  Insp.Table.print table

let faults_cmd =
  let events =
    Arg.(
      value & opt int 10
      & info [ "events" ] ~docv:"E"
          ~doc:"Scheduled fault events in the timeline (crash bursts may \
                expand them).")
  in
  let mean_burst =
    Arg.(
      value & opt int 2
      & info [ "mean-burst" ] ~docv:"B"
          ~doc:"Mean crash-burst size (1 = independent crashes).")
  in
  let no_measure =
    Arg.(
      value & flag
      & info [ "no-measure" ]
          ~doc:"Skip the discrete-event replay of capacity faults (repair \
                accounting only).")
  in
  let max_procs =
    Arg.(
      value & opt (some int) None
      & info [ "max-procs" ] ~docv:"P"
          ~doc:"Cap on the repaired processor count — a deliberately tight \
                cap makes overloaded post-crash platforms report as \
                infeasible.")
  in
  let no_rebuy =
    Arg.(
      value & flag
      & info [ "no-rebuy" ]
          ~doc:"Migration-only repair: never buy replacement processors.")
  in
  let harden_k =
    Arg.(
      value & opt (some int) None
      & info [ "harden" ] ~docv:"K"
          ~doc:"Before the run, buy spare capacity so any K simultaneous \
                processor failures are repairable by migration alone.")
  in
  let journal_out =
    Arg.(
      value & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:"Write the fault/repair decision journal (canonical JSONL).")
  in
  let verify =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:"Replay the crash/repair timeline twice and require \
                byte-identical journals and reports.")
  in
  let run seed n alpha sizes freq events mean_burst no_measure max_procs
      no_rebuy harden_k heuristic journal_out verify trace metrics profile =
    let key = single_key heuristic in
    find_heuristic key @@ fun h ->
    let inst = make_instance n alpha sizes freq seed in
    let g = Insp.Graph.of_app inst.Insp.Instance.app in
    match Insp.Solve.run_graph ~seed h g inst.Insp.Instance.platform with
    | Error f ->
      prerr_endline ("initial solve failed: " ^ Insp.Solve.failure_message f);
      exit_infeasible
    | Ok o -> (
      let hardened =
        match harden_k with
        | None -> Ok None
        | Some k ->
          Result.map
            (fun hd -> Some hd)
            (Insp.Redundancy.harden ~k g inst.Insp.Instance.platform
               o.Insp.Solve.alloc)
      in
      match hardened with
      | Error msg ->
        prerr_endline ("harden failed: " ^ msg);
        exit_infeasible
      | Ok hardened ->
        let base_alloc =
          match hardened with
          | Some hd -> hd.Insp.Redundancy.alloc
          | None -> o.Insp.Solve.alloc
        in
        let timeline =
          Insp.Fault_scenario.generate
            (Insp.Fault_scenario.make ~seed ~n_events:events ~mean_burst ())
        in
        let spec =
          Insp.Fault_engine.make_spec ?max_procs
            ~allow_rebuy:(not no_rebuy) ~measure:(not no_measure)
            ~heuristic:h ()
        in
        let once () =
          let report, recorder =
            Insp.Obs.with_sink ~journal:true ~profile:(profile <> None)
              (fun () ->
                Insp.Fault_engine.run spec g inst.Insp.Instance.platform
                  base_alloc timeline)
          in
          Journal.set_manifest recorder.Insp.Obs.journal
            {
              Journal.m_seed = seed;
              m_config_hash =
                Journal.hash_hex
                  (Format.asprintf "%a" Insp.Config.pp
                     (Insp.Config.make ~n_operators:n ~alpha ~sizes ~freq
                        ~seed ()));
              m_heuristic = key;
              m_args =
                [
                  ("events", string_of_int events);
                  ("mean-burst", string_of_int mean_burst);
                  ("measure", string_of_bool (not no_measure));
                  ("rebuy", string_of_bool (not no_rebuy));
                  ( "max-procs",
                    match max_procs with
                    | Some p -> string_of_int p
                    | None -> "none" );
                  ( "harden",
                    match harden_k with
                    | Some k -> string_of_int k
                    | None -> "none" );
                ];
            };
          (report, recorder)
        in
        let ((report, recorder) as run) = once () in
        let verify_code =
          if verify then
            verify_rerun ~cmd:"faults" ~part:"report"
              ~render:(Format.asprintf "%a" Insp.Fault_engine.pp_report)
              once run
          else 0
        in
        print_fault_episodes report;
        Format.printf "%a@." Insp.Fault_engine.pp_report report;
        Option.iter
          (fun (hd : Insp.Redundancy.hardened) ->
            Format.printf
              "hardened for K=%d: %d spare(s), cost $%.0f (base $%.0f)@."
              hd.Insp.Redundancy.k hd.spares hd.cost hd.base_cost)
          hardened;
        Option.iter (fun path -> write_journal path recorder) journal_out;
        export_obs ~trace ~metrics ~profile recorder;
        if verify_code <> 0 then verify_code
        else
          match report.Insp.Fault_engine.infeasible_at with
          | Some _ -> exit_infeasible
          | None -> 0)
  in
  let term =
    Term.(
      const run $ seed $ n_operators $ alpha $ sizes $ freq $ events
      $ mean_burst $ no_measure $ max_procs $ no_rebuy $ harden_k
      $ heuristic_arg $ journal_out $ verify $ trace_arg $ metrics_arg
      $ profile_arg)
  in
  Cmd.v
    (Cmd.info "faults" ~exits
       ~doc:
         "Drive a deployed mapping through a deterministic seed-driven fault \
          timeline: crashes are repaired against residual capacity \
          (migrate/upgrade/rebuy), capacity faults are replayed in the \
          discrete-event runtime (throughput dip, recovery time) and demand \
          shifts trigger redeploys.  Exits with status 1 when the timeline \
          hits an irreparable fault.")
    term

(* ------------------------------------------------------------------ *)
(* catalog                                                             *)

let catalog_cmd =
  (* The catalog is a fixed table; --seed is accepted so every subcommand
     takes it uniformly, and ignored. *)
  let run _seed =
    Format.printf "%a@." Insp.Catalog.pp Insp.Catalog.dell_2008;
    0
  in
  Cmd.v
    (Cmd.info "catalog"
       ~doc:
         "Print the Table-1 processor purchase catalog.  $(b,--seed) is \
          accepted for interface uniformity and ignored.")
    Term.(const run $ seed)

(* ------------------------------------------------------------------ *)
(* journal dump / diff / verify, explain                               *)

let journal_dump_cmd =
  let out =
    Arg.(
      value
      & opt string "journal.jsonl"
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Decision journal destination (canonical JSONL).")
  in
  let run n alpha sizes freq seed heuristic depth out trace metrics =
    find_heuristics heuristic @@ fun hs ->
    let results, recorder =
      journaled_solve ~n ~alpha ~sizes ~freq ~seed ~heuristic ~depth hs
    in
    write_journal out recorder;
    export_obs ~trace ~metrics ~profile:None recorder;
    solve_exit_code results
  in
  let term =
    Term.(
      const run $ n_operators $ alpha $ sizes $ freq $ seed $ heuristic_arg
      $ journal_depth_arg $ out $ trace_arg $ metrics_arg)
  in
  Cmd.v
    (Cmd.info "dump" ~exits
       ~doc:
         "Solve an instance with decision journaling on and write the \
          canonical JSONL journal (manifest line first).")
    term

let journal_diff_cmd =
  let file_a =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"A" ~doc:"Journal A.")
  in
  let file_b =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"B" ~doc:"Journal B.")
  in
  let context =
    Arg.(
      value & opt int 3
      & info [ "context" ] ~docv:"K"
          ~doc:"Common lines printed before the divergence.")
  in
  let run a b context =
    match Journal.diff ~context (read_file a) (read_file b) with
    | None ->
      Format.printf "journals are identical@.";
      0
    | Some d ->
      print_divergence d;
      exit_infeasible
  in
  Cmd.v
    (Cmd.info "diff" ~exits
       ~doc:
         "First divergent decision event between two journal files, with \
          context — the \"why did seed 7 cost two more processors\" answer.")
    Term.(const run $ file_a $ file_b $ context)

let journal_verify_cmd =
  let run n alpha sizes freq seed heuristic depth =
    find_heuristics heuristic @@ fun hs ->
    let once () =
      let results, recorder =
        journaled_solve ~n ~alpha ~sizes ~freq ~seed ~heuristic ~depth hs
      in
      (results, Journal.to_jsonl recorder.Insp.Obs.journal)
    in
    let results, first = once () in
    let _, second = once () in
    match Journal.diff first second with
    | None ->
      Format.printf "journal verify: OK (%d lines, byte-identical)@."
        (List.length (String.split_on_char '\n' first) - 1);
      solve_exit_code results
    | Some d ->
      Format.printf "journal verify: FAILED@.";
      print_divergence d;
      exit_infeasible
  in
  let term =
    Term.(
      const run $ n_operators $ alpha $ sizes $ freq $ seed $ heuristic_arg
      $ journal_depth_arg)
  in
  Cmd.v
    (Cmd.info "verify" ~exits
       ~doc:
         "Run the scenario twice and require byte-identical journals — a \
          determinism gate over every recorded allocation decision.")
    term

let journal_cmd =
  Cmd.group
    (Cmd.info "journal" ~exits
       ~doc:"Deterministic decision journal: dump, diff, verify.")
    [ journal_dump_cmd; journal_diff_cmd; journal_verify_cmd ]

let explain_cmd =
  let proc =
    Arg.(
      required
      & pos 0 (some int) None
      & info [] ~docv:"PROC" ~doc:"Final processor index to explain.")
  in
  let run n alpha sizes freq seed heuristic depth proc =
    (* "all" would interleave six pipelines; explain one heuristic's
       choice — default to the paper's best performer. *)
    let heuristic = single_key heuristic in
    find_heuristic heuristic @@ fun h ->
    let _, recorder =
      journaled_solve ~n ~alpha ~sizes ~freq ~seed ~heuristic ~depth [ h ]
    in
    match Journal.explain ~proc (Journal.events recorder.Insp.Obs.journal) with
    | [] ->
      Format.printf
        "no decision chain for processor %d (infeasible run or index out of \
         range)@."
        proc;
      exit_infeasible
    | chain ->
      List.iter (fun ev -> print_endline (Journal.event_to_json ev)) chain;
      0
  in
  let term =
    Term.(
      const run $ n_operators $ alpha $ sizes $ freq $ seed $ heuristic_arg
      $ journal_depth_arg $ proc)
  in
  Cmd.v
    (Cmd.info "explain" ~exits
       ~doc:
         "Filter the decision journal to the chain of decisions that led to \
          one purchased processor (its group's probes, merges, downloads and \
          downgrades).")
    term

let main =
  let doc = "resource allocation for constructive in-network stream processing" in
  let info = Cmd.info "insp" ~version:Insp.version ~doc in
  Cmd.group info
    [
      solve_cmd; simulate_cmd; sweep_cmd; exact_cmd; multi_cmd; rewrite_cmd;
      serve_cmd; faults_cmd; catalog_cmd; journal_cmd; explain_cmd;
    ]

let () = exit (Cmd.eval' main)
