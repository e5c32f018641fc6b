(* The benchmark's workloads.  Each one builds its inputs from the seed
   with the library's own generators, then exposes one operation ("op")
   per input for the harness in main.ml to time, verify and trace.
   Only public functions of [Insp] are called. *)

open Insp
open Measure

(* What one op produced, as the harness sees it after the clock has
   stopped: a canonical fingerprint, whether the output passed the
   outside verification, and its platform cost (0 when unanswered). *)
type answer = { fp : string; ok : bool; cost : float }

(* [full] selects the outside verification (the Eq. (1)-(5) checker,
   the DAG checker, residual invariants); without it the harness only
   compares fingerprints with the reference pass. *)
type result = full:bool -> answer

type t = {
  tail : float;
      (** the tail percentile over inputs: the highest that keeps ten
          inputs beyond it *)
  n : int;  (** inputs per pass; ops cycle over them *)
  setup_s : float;  (** median set-up time *)
  generate_ms : float;  (** median input-generation time, within set-up *)
  generate_words : float;
  prepare : int -> unit;
      (** untimed, before op [i] (counted over the whole run, not modulo
          [n]) *)
  op : int -> result;  (** the untraced op on input [k] *)
  traced : Trace.t -> int -> result;
      (** the same op replayed as its public stages, each one a span *)
  layers : Obs.t -> (string, Trace.layer) Hashtbl.t -> (string * float) list;
      (** workload-specific per-layer metrics from the reference pass's
          sink and the traced loop's spans, aggregated by name *)
}

(* Set-up is measured at least [min_setup_reps] times and for at least
   [min_setup_s] seconds, and reported as the median repetition, scaled
   to the reference machine speed like op latencies; the generation
   step is also timed on its own, as the generate layer. *)
let min_setup_reps = 3
let min_setup_s = 0.25

let setup ~generate ~prepare =
  let gen_ms = Samples.create () and total_s = Samples.create () in
  let words = ref 0.0 and last = ref None in
  let speed = reference_ms /. reference_sample () in
  while
    Samples.length total_s < min_setup_reps
    || Samples.sum total_s < min_setup_s && Samples.length total_s < 200
  do
    let w0 = Gc.minor_words () in
    let t0 = now_ns () in
    let g = generate () in
    let t1 = now_ns () in
    words := Gc.minor_words () -. w0;
    let r = prepare g in
    let t2 = now_ns () in
    Samples.add gen_ms (ms_between t0 t1 *. speed);
    Samples.add total_s (ms_between t0 t2 /. 1e3 *. speed);
    last := Some r
  done;
  ( Option.get !last,
    median (Samples.to_array total_s),
    median (Samples.to_array gen_ms),
    !words )

let ratio a b = if b > 0.0 then a /. b else 0.0

let counter (sink : Obs.t) name =
  float_of_int
    (Option.value ~default:0 (Obs_metrics.counter sink.Obs.metrics name))

(* Share of the traced ops' time spent in spans named [name]; [l] is
   the traced loop's spans aggregated by name. *)
let share l name =
  match (Hashtbl.find_opt l "op", Hashtbl.find_opt l name) with
  | Some op, Some x -> ratio x.Trace.total_ms op.Trace.total_ms
  | _ -> 0.0

(* Minor words per traced op spent in spans named [name]. *)
let words_per_op l name =
  match (Hashtbl.find_opt l "op", Hashtbl.find_opt l name) with
  | Some op, Some x -> ratio x.Trace.total_words (float_of_int op.Trace.calls)
  | _ -> 0.0

let digest_value v =
  Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.No_sharing ]))

(* ------------------------------------------------------------------ *)
(* Solver pipeline: Solve.run and its staged replay                    *)

let solve_fp = function
  | Ok (o : Solve.outcome) ->
    Printf.sprintf "ok %h %d %s" o.Solve.cost o.Solve.n_procs
      (digest_value (Alloc.procs o.Solve.alloc))
  | Error (Solve.Placement m) -> "placement " ^ m
  | Error (Solve.Server_selection m) -> "server_selection " ^ m
  | Error (Solve.Validation m) -> "validation " ^ m

(* A typed placement or selection failure is the answer "no feasible
   mapping"; only a [Validation] failure, or an outcome the checker
   rejects, is wrong. *)
let solve_verified app (platform : Platform.t) = function
  | Ok (o : Solve.outcome) ->
    Check.check app platform o.Solve.alloc = []
    && o.Solve.cost = Cost.of_alloc platform.Platform.catalog o.Solve.alloc
    && o.Solve.n_procs = Alloc.n_procs o.Solve.alloc
  | Error (Solve.Validation _) -> false
  | Error (Solve.Placement _ | Solve.Server_selection _) -> true

(* [Solve.run] replayed as its public stages, each one a span.  The
   harness asserts that the outcome is identical to [Solve.run]'s. *)
let staged tr ~seed (h : Solve.heuristic) app (platform : Platform.t) =
  let call name f = Trace.call tr name f in
  let rng = Prng.create seed in
  match call ("placement." ^ h.Solve.key) (fun () -> h.Solve.run rng app platform) with
  | Error m -> Error (Solve.Placement m)
  | Ok builder -> (
    match call "finalize" (fun () -> Builder.finalize builder) with
    | Error m -> Error (Solve.Placement m)
    | Ok (groups, configs) -> (
      match
        call "server_select" (fun () ->
            if h.Solve.randomized then Server_select.random rng app platform ~groups
            else Server_select.sophisticated app platform ~groups)
      with
      | Error m -> Error (Solve.Server_selection m)
      | Ok downloads -> (
        let alloc =
          call "alloc_build" (fun () -> Alloc.of_groups ~configs ~groups ~downloads)
        in
        let alloc = call "downgrade" (fun () -> Downgrade.run app platform alloc) in
        match call "check" (fun () -> Check.check app platform alloc) with
        | [] ->
          call "cost" (fun () ->
              Ok
                {
                  Solve.alloc;
                  cost = Cost.of_alloc platform.Platform.catalog alloc;
                  n_procs = Alloc.n_procs alloc;
                })
        | violations -> Error (Solve.Validation (Check.explain violations)))))

let solver_stages =
  [ "finalize"; "server_select"; "alloc_build"; "downgrade"; "check" ]

(* Per-layer metrics of the solver pipeline: stage shares and words
   from the traced replay, probe counters from the reference pass. *)
let solver_layers ~ops_per_pass ~operators_per_op sink l =
  let placement_share =
    List.fold_left
      (fun acc h -> acc +. share l ("placement." ^ h.Solve.key))
      0.0 Solve.all
  and placement_words =
    List.fold_left
      (fun acc h -> acc +. words_per_op l ("placement." ^ h.Solve.key))
      0.0 Solve.all
  in
  let per_op x = x /. float_of_int ops_per_pass in
  let probes = counter sink "heur.probe" in
  let absorb_ok = counter sink "heur.absorb.ok" in
  [
    ("placement.share", placement_share);
    ("placement.words", placement_words);
    ("placement.words_per_operator", ratio placement_words operators_per_op);
    ("placement.probes", per_op probes);
    ("placement.probe_hit_ratio", ratio (counter sink "heur.probe.hit") probes);
    ("placement.acquires", per_op (counter sink "heur.acquire"));
    ( "placement.absorb_ok_ratio",
      ratio absorb_ok (absorb_ok +. counter sink "heur.absorb.reject") );
  ]
  @ List.map
      (fun h ->
        ( "placement." ^ h.Solve.key ^ ".share",
          share l ("placement." ^ h.Solve.key) ))
      Solve.all
  @ List.concat_map
      (fun s ->
        [ (s ^ ".share", share l s); (s ^ ".words", words_per_op l s) ])
      solver_stages

(* ------------------------------------------------------------------ *)
(* scale_solve: one 100k-operator tree, Comp-Greedy, solved repeatedly *)

let scale_operators = 100_000

(* [alloc.100k] in BENCH_insp.json: the profiled minor words of one
   Comp-Greedy solve of [Config.scale ~seed:1 ~n_operators:100_000]. *)
let alloc_100k_words = 60.05e6

let scale_solve ~seed =
  let comp = Option.get (Solve.find "comp") in
  let inst, setup_s, generate_ms, generate_words =
    setup
      ~generate:(fun () ->
        match
          Instance.generate_checked
            (Config.scale ~seed ~n_operators:scale_operators ())
        with
        | Ok i -> i
        | Error e -> failwith (Instance.gen_error_message e))
      ~prepare:Fun.id
  in
  let app = inst.Instance.app and platform = inst.Instance.platform in
  let answer r ~full =
    {
      fp = solve_fp r;
      ok = (not full) || solve_verified app platform r;
      cost = (match r with Ok o -> o.Solve.cost | Error _ -> 0.0);
    }
  in
  {
    tail = 0.5;
    n = 1;
    setup_s;
    generate_ms;
    generate_words;
    prepare = ignore;
    op = (fun _ -> answer (Solve.run ~seed comp app platform));
    traced =
      (fun tr _ -> answer (Trace.call tr "op" (fun () -> staged tr ~seed comp app platform)));
    layers =
      (fun sink l ->
        let layers =
          solver_layers ~ops_per_pass:1
            ~operators_per_op:(float_of_int scale_operators) sink l
        in
        let stage_words =
          words_per_op l "placement.comp"
          +. words_per_op l "cost"
          +. List.fold_left (fun acc s -> acc +. words_per_op l s) 0.0 solver_stages
        in
        ("alloc.stage_words_vs_100k", ratio stage_words alloc_100k_words) :: layers);
  }

(* ------------------------------------------------------------------ *)
(* paper_suite / paper_validate: the paper's §5 instance grid           *)

let paper_sizes = [ 20; 40; 60; 80; 100 ]
let paper_alphas = [ 0.9; 1.5; 1.7 ]
(* Draws per (N, alpha) cell: the p90 needs many instances to hold still
   across seeds. *)
let suite_draws = 20

(* DES horizon (simulated seconds) for paper_validate. *)
let des_horizon = 40.0

(* Small objects and high download frequency are [Config.make]'s
   defaults.  Instance seeds derive from the benchmark seed. *)
let paper_instances ~seed () =
  List.concat_map
    (fun n ->
      List.concat_map
        (fun alpha ->
          List.init suite_draws (fun d ->
              let inst_seed =
                (100_000 * seed) + (1000 * d) + n + int_of_float (alpha *. 10.0)
              in
              Instance.generate
                (Config.make ~n_operators:n ~alpha ~seed:inst_seed ())))
        paper_alphas)
    paper_sizes
  |> Array.of_list

let inst_seed (i : Instance.t) = i.Instance.config.Config.seed

let cheapest results =
  List.fold_left
    (fun best (_, r) ->
      match (best, r) with
      | None, Ok o -> Some o
      | Some b, Ok o when o.Solve.cost < b.Solve.cost -> Some o
      | _ -> best)
    None results

let run_all_answer inst results ~full =
  let app = inst.Instance.app and platform = inst.Instance.platform in
  {
    fp =
      String.concat "; "
        (List.map (fun (h, r) -> h.Solve.key ^ " " ^ solve_fp r) results);
    ok =
      (not full)
      || List.for_all (fun (_, r) -> solve_verified app platform r) results;
    cost = (match cheapest results with Some o -> o.Solve.cost | None -> 0.0);
  }

let paper_suite ~seed =
  let insts, setup_s, generate_ms, generate_words =
    setup ~generate:(paper_instances ~seed) ~prepare:Fun.id
  in
  {
    tail = 0.9;
    n = Array.length insts;
    setup_s;
    generate_ms;
    generate_words;
    prepare = ignore;
    op =
      (fun k ->
        let i = insts.(k) in
        run_all_answer i
          (Solve.run_all ~seed:(inst_seed i) i.Instance.app i.Instance.platform));
    traced =
      (fun tr k ->
        let i = insts.(k) in
        let results =
          Trace.call tr "op" (fun () ->
              List.map
                (fun h ->
                  ( h,
                    staged tr ~seed:(inst_seed i) h i.Instance.app
                      i.Instance.platform ))
                Solve.all)
        in
        run_all_answer i results);
    layers =
      (fun sink l ->
        let operators =
          Array.fold_left
            (fun acc i -> acc + i.Instance.config.Config.n_operators)
            0 insts
        in
        solver_layers ~ops_per_pass:(Array.length insts)
          ~operators_per_op:
            (float_of_int operators /. float_of_int (Array.length insts))
          sink l);
  }

(* The DES report fields that make up the fingerprint.  The achieved
   ratio is recorded, never judged: at a 40 s horizon pipeline fill
   keeps some feasible mappings below 0.95 rho. *)
let report_fp (r : Runtime.report) =
  Printf.sprintf "%d %d %h %h" r.Runtime.results_completed r.Runtime.events
    r.Runtime.achieved_throughput r.Runtime.download_delivered

(* paper_validate draws its instances from one grid cell, the paper's
   default N=60, alpha=0.9: DES times across the whole grid span more
   than 10x, so a median over the grid moved by a quarter between
   seeds. *)
let validate_instances = 120

let paper_validate ~seed =
  let mappings, setup_s, generate_ms, generate_words =
    setup
      ~generate:(fun () ->
        Array.init validate_instances (fun d ->
            Instance.generate
              (Config.make ~n_operators:60 ~alpha:0.9 ~seed:((100_000 * seed) + d) ())))
      ~prepare:(fun insts ->
        Array.to_list insts
        |> List.filter_map (fun i ->
               Solve.run_all ~seed:(inst_seed i) i.Instance.app
                 i.Instance.platform
               |> cheapest
               |> Option.map (fun o -> (i, o)))
        |> Array.of_list)
  in
  let min_ratio = ref infinity in
  let answer (i, (o : Solve.outcome)) r ~full =
    let ratio = r.Runtime.achieved_throughput /. r.Runtime.target_throughput in
    if ratio < !min_ratio then min_ratio := ratio;
    {
      fp = report_fp r;
      ok =
        (not full)
        || Check.check i.Instance.app i.Instance.platform o.Solve.alloc = []
           && r.Runtime.events > 0;
      cost = o.Solve.cost;
    }
  in
  let simulate (i, (o : Solve.outcome)) =
    Runtime.run ~horizon:des_horizon i.Instance.app i.Instance.platform
      o.Solve.alloc
  in
  {
    tail = 0.75;
    n = Array.length mappings;
    setup_s;
    generate_ms;
    generate_words;
    prepare = ignore;
    op = (fun k -> answer mappings.(k) (simulate mappings.(k)));
    traced =
      (fun tr k ->
        answer mappings.(k)
          (Trace.call tr "op" (fun () ->
               Trace.call tr "sim" (fun () -> simulate mappings.(k)))));
    layers =
      (fun sink l ->
        let n = float_of_int (Array.length mappings) in
        let sim_ms, sim_calls =
          match Hashtbl.find_opt l "sim" with
          | Some s -> (s.Trace.total_ms, s.Trace.calls)
          | None -> (0.0, 0)
        in
        let events = counter sink "sim.event" /. n in
        [
          ("sim.words", words_per_op l "sim");
          ("sim.events", events);
          ("sim.events_per_s", ratio (events *. float_of_int sim_calls) (sim_ms /. 1e3));
          ("sim.rate_recomputes", counter sink "sim.rate_recompute" /. n);
          ("sim.min_achieved_ratio", !min_ratio);
        ]);
  }

(* ------------------------------------------------------------------ *)
(* serve_churn: one client driving Serve.handle in stream order        *)

let serve_apps = 2_000

(* The service platform is fixed; the seed draws the event stream. *)
let serve_platform_seed = 1

let serve_churn ~seed =
  let params =
    Serve.make_params
      ~base:(Config.make ~n_operators:60 ~seed:serve_platform_seed ())
      ~tenancy:Serve.Shared ~proc_budget:128 ~card_scale:0.08 ~reoptimize:true ()
  in
  let events, setup_s, generate_ms, generate_words =
    setup
      ~generate:(fun () ->
        Serve_stream.events
          (Serve_stream.make ~n_apps:serve_apps ~min_operators:6
             ~max_operators:24 ~seed ())
        |> Array.of_list)
      ~prepare:(fun events ->
        ignore (Serve.create params);
        events)
  in
  let n = Array.length events in
  let svc = ref (Serve.create params) in
  let live_sum = ref 0 in
  (* The answer to an event is the live-application count after it
     (so the admit/reject sequence), plus, at the end of a pass, the
     canonical state dump with every admitted allocation and account. *)
  let answer k ~full =
    let live = Serve.n_live !svc in
    let residual_ok () =
      Array.for_all (fun c -> c >= -1e-6) (Serve.residual_cards !svc ~tenant:0)
      && Serve.residual_procs !svc ~tenant:0 >= 0
    in
    if full then live_sum := !live_sum + live;
    {
      fp =
        (if k = n - 1 then
           Printf.sprintf "%d %s" live (Digest.to_hex (Digest.string (Serve.dump_state !svc)))
         else string_of_int live);
      ok = (not full) || residual_ok ();
      cost =
        (if k = n - 1 then (Serve.totals !svc).Serve.purchased else 0.0);
    }
  in
  let prepare i = if i mod n = 0 then svc := Serve.create params in
  {
    tail = 0.99;
    n;
    setup_s;
    generate_ms;
    generate_words;
    prepare;
    op =
      (fun k ->
        Serve.handle !svc events.(k);
        answer k);
    traced =
      (fun tr k ->
        Trace.call tr "op" (fun () -> Serve.handle !svc events.(k));
        (* The residual query an admission starts from, timed from
           outside after every event. *)
        Trace.call tr "serve.residual" (fun () ->
            ignore (Serve.residual_cards !svc ~tenant:0);
            ignore (Serve.residual_procs !svc ~tenant:0));
        answer k);
    layers =
      (fun sink l ->
        let residual_ms =
          match Hashtbl.find_opt l "serve.residual" with
          | Some r -> r.Trace.total_ms
          | None -> 0.0
        in
        let op_ms =
          match Hashtbl.find_opt l "op" with Some o -> o.Trace.total_ms | None -> 0.0
        in
        let arrivals = counter sink "serve.arrival" in
        let probes = counter sink "heur.probe" in
        [
          ("serve.residual.share", ratio residual_ms op_ms);
          ("serve.live_apps_mean", float_of_int !live_sum /. float_of_int n);
          ("serve.rejects.placement", counter sink "serve.reject.placement");
          ("serve.rejects.proc_budget", counter sink "serve.reject.proc_budget");
          ("serve.reopt_rebalanced", counter sink "serve.reopt.rebalanced");
          ("serve.reject_share", ratio (counter sink "serve.reject") arrivals);
          ("placement.probes", probes /. float_of_int n);
          ("placement.probe_hit_ratio", ratio (counter sink "heur.probe.hit") probes);
          ("placement.acquires", counter sink "heur.acquire" /. float_of_int n);
        ]);
  }

(* ------------------------------------------------------------------ *)
(* multi_shared: correlated application sets placed as shared DAGs     *)

let multi_sets = 64
let multi_apps = 6
let multi_operators = 60

let multi_shared ~seed =
  let sets, setup_s, generate_ms, generate_words =
    setup
      ~generate:(fun () ->
        Array.init multi_sets (fun i ->
            Multi_workload.instance ~seed:((1000 * seed) + i) ~n_apps:multi_apps
              ~n_operators:multi_operators))
      ~prepare:Fun.id
  in
  let procs = ref 0 in
  let answer k dag r ~full =
    let _, platform = sets.(k) in
    match r with
    | Ok (o : Dag_place.outcome) ->
      if full then procs := !procs + o.Dag_place.n_procs;
      {
        fp =
          Printf.sprintf "ok %d %h %d %s" (Dag.n_nodes dag) o.Dag_place.cost
            o.Dag_place.n_procs
            (digest_value (Alloc.procs o.Dag_place.alloc));
        ok = (not full) || Dag_check.check dag platform o.Dag_place.alloc = [];
        cost = o.Dag_place.cost;
      }
    | Error (Dag_place.Validation m) -> { fp = "validation " ^ m; ok = false; cost = 0.0 }
    | Error f -> { fp = Dag_place.failure_message f; ok = true; cost = 0.0 }
  in
  let place k =
    let apps, platform = sets.(k) in
    let dag = Cse.share_apps apps in
    (dag, Dag_place.run dag platform)
  in
  {
    tail = 0.8;
    n = multi_sets;
    setup_s;
    generate_ms;
    generate_words;
    prepare = ignore;
    op =
      (fun k ->
        let dag, r = place k in
        answer k dag r);
    traced =
      (fun tr k ->
        let apps, platform = sets.(k) in
        let dag, r =
          Trace.call tr "op" (fun () ->
              let dag = Trace.call tr "multi.cse" (fun () -> Cse.share_apps apps) in
              (dag, Trace.call tr "multi.place" (fun () -> Dag_place.run dag platform)))
        in
        (* The outside check, a sibling of the op: it is verification,
           not part of the op. *)
        (match r with
        | Ok o ->
          ignore
            (Trace.call tr "multi.check" (fun () ->
                 Dag_check.check dag platform o.Dag_place.alloc))
        | Error _ -> ());
        answer k dag r);
    layers =
      (fun _sink l ->
        let shared, unshared =
          Array.fold_left
            (fun (s, u) (apps, _) ->
              ( s + Dag.n_nodes (Cse.share_apps apps),
                u + Dag.n_nodes (Dag.of_apps apps) ))
            (0, 0) sets
        in
        [
          ("multi.cse.share", share l "multi.cse");
          ("multi.place.share", share l "multi.place");
          ("multi.check.share", share l "multi.check");
          ("multi.shared_node_ratio", ratio (float_of_int shared) (float_of_int unshared));
          ("multi.procs", float_of_int !procs /. float_of_int multi_sets);
        ]);
  }

let all =
  [
    ("scale_solve", scale_solve);
    ("paper_suite", paper_suite);
    ("paper_validate", paper_validate);
    ("serve_churn", serve_churn);
    ("multi_shared", multi_shared);
  ]
