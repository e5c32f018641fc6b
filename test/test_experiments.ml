(* Tests for the experiment harness: figure data model, rendering, and
   quick versions of the paper experiments (shape assertions). *)

module Figure = Insp.Figure
module Suite = Insp.Suite
module Par_sweep = Insp.Par_sweep

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Figure                                                              *)

let test_cell_of_costs () =
  let c = Figure.cell_of_costs ~attempts:4 [ 10.0; 20.0 ] in
  (* 2 of 4 successes: plotted *)
  Alcotest.(check (option (float 1e-9))) "mean" (Some 15.0) c.Figure.mean_cost;
  Alcotest.(check int) "successes" 2 c.Figure.successes;
  let c = Figure.cell_of_costs ~attempts:5 [ 10.0; 20.0 ] in
  Alcotest.(check (option (float 1e-9))) "minority -> hidden" None
    c.Figure.mean_cost;
  let c = Figure.cell_of_costs ~attempts:3 [] in
  Alcotest.(check (option (float 1e-9))) "no success" None c.Figure.mean_cost

let sample_figure () =
  {
    Figure.id = "t";
    title = "test figure";
    xlabel = "N";
    points =
      [
        {
          Figure.x = 20.0;
          cells =
            [
              ("A", Figure.cell_of_costs ~attempts:2 [ 10.0; 10.0 ]);
              ("B", Figure.cell_of_costs ~attempts:2 [ 30.0; 30.0 ]);
            ];
        };
        {
          Figure.x = 40.0;
          cells =
            [
              ("A", Figure.cell_of_costs ~attempts:2 [ 50.0 ]);
              ("B", Figure.cell_of_costs ~attempts:2 []);
            ];
        };
      ];
    notes = [ "a note" ];
  }

let test_render () =
  let s = Figure.render (sample_figure ()) in
  Alcotest.(check bool) "title" true (contains s "test figure");
  Alcotest.(check bool) "headers" true (contains s "A");
  Alcotest.(check bool) "partial success annotated" true (contains s "(1/2)");
  Alcotest.(check bool) "note" true (contains s "note: a note");
  Alcotest.(check bool) "csv block" true (contains s "csv:\nN,A,B")

let test_series_and_winners () =
  let f = sample_figure () in
  (* A wins at x=20 (10 < 30) and is alone at x=40. *)
  Alcotest.(check (list (pair string int))) "winners" [ ("A", 2); ("B", 0) ]
    (Figure.winner_counts f)

(* ------------------------------------------------------------------ *)
(* Suite (quick mode)                                                  *)

let test_all_ids_covered () =
  Alcotest.(check int) "fourteen experiments" 14 (List.length Suite.all_ids);
  List.iter
    (fun id ->
      match Suite.run_by_id ~quick:true id with
      | Some s ->
        Alcotest.(check bool) (id ^ " non-empty") true (String.length s > 0)
      | None -> Alcotest.fail ("unknown id " ^ id))
    [ "fig2a" ] (* the expensive full check happens in integration *)

let test_unknown_id () =
  Alcotest.(check bool) "unknown" true (Suite.run_by_id "nope" = None)

let series_names fig = List.map fst (Figure.winner_counts fig)

(* The plotted series of a figure rendered by [Suite.run_by_id], read
   back from its CSV block: one (x, [(series, mean cost)]) per point,
   unplotted cells omitted. *)
let quick_points id =
  let s =
    match Suite.run_by_id ~quick:true id with
    | Some s -> s
    | None -> Alcotest.fail ("unknown id " ^ id)
  in
  let marker = "csv:\n" in
  let rec find i =
    if String.sub s i (String.length marker) = marker then
      i + String.length marker
    else find (i + 1)
  in
  let start = find 0 in
  match
    String.split_on_char '\n' (String.sub s start (String.length s - start))
    |> List.filter (fun l -> l <> "")
    |> List.map (String.split_on_char ',')
  with
  | (_ :: names) :: rows ->
    List.map
      (fun row ->
        match row with
        | x :: cells ->
          ( float_of_string x,
            List.filter_map
              (fun (n, c) -> if c = "" then None else Some (n, float_of_string c))
              (List.combine names cells) )
        | [] -> Alcotest.fail "empty csv row")
      rows
  | _ -> Alcotest.fail (id ^ ": no csv block")

let test_fig2a_quick_shape () =
  (* Costs should grow with N for every heuristic, and Random should be
     the most expensive plotted series at every point. *)
  let fig = Suite.fig2a ~seeds:[ 1; 2 ] ~ns:[ 20; 60 ] () in
  Alcotest.(check int) "two points" 2 (List.length fig.Figure.points);
  let value name p =
    match List.assoc_opt name p.Figure.cells with
    | Some { Figure.mean_cost = Some c; _ } -> Some c
    | _ -> None
  in
  let p20 = List.nth fig.Figure.points 0 in
  let p60 = List.nth fig.Figure.points 1 in
  List.iter
    (fun name ->
      match (value name p20, value name p60) with
      | Some a, Some b ->
        Alcotest.(check bool) (name ^ " grows with N") true (b > a)
      | _ -> ())
    (series_names fig);
  match (value "Random" p60, value "Subtree-bottom-up" p60) with
  | Some r, Some s ->
    Alcotest.(check bool) "Random worst at N=60" true (r > s)
  | _ -> Alcotest.fail "expected both plotted"

let test_fig3_quick_thresholds () =
  (* At N=60: alpha=0.9 cheap and feasible; alpha=2.4 infeasible. *)
  let fig = Suite.fig3 ~seeds:[ 1; 2 ] ~alphas:[ 0.9; 2.4 ] () in
  let cell name p = List.assoc name p.Figure.cells in
  let p_low = List.nth fig.Figure.points 0 in
  let p_high = List.nth fig.Figure.points 1 in
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (name ^ " feasible at 0.9") true
        ((cell name p_low).Figure.mean_cost <> None);
      Alcotest.(check bool)
        (name ^ " infeasible at 2.4") true
        ((cell name p_high).Figure.mean_cost = None))
    (series_names fig)

let test_ilp_quick_optimality () =
  (* Exact must be <= every plotted heuristic mean, and >= the bound. *)
  List.iter
    (fun (x, cells) ->
      match List.assoc_opt "Exact" cells with
      | Some exact ->
        List.iter
          (fun (name, c) ->
            if name <> "Exact" && name <> "Bound" then
              Alcotest.(check bool)
                (Printf.sprintf "exact <= %s at N=%.0f" name x)
                true
                (exact <= c +. 1e-6))
          cells;
        (match List.assoc_opt "Bound" cells with
        | Some bound ->
          Alcotest.(check bool) "bound <= exact" true (bound <= exact +. 1e-6)
        | None -> ())
      | None -> ())
    (quick_points "ilp")

let test_sharing_quick_shape () =
  List.iter
    (fun (x, cells) ->
      match
        (List.assoc_opt "No sharing" cells, List.assoc_opt "CSE sharing" cells)
      with
      | Some unshared, Some shared ->
        Alcotest.(check bool)
          (Printf.sprintf "sharing <= unshared + one chassis at x=%.0f" x)
          true
          (shared <= unshared +. 8000.0)
      | _ -> ())
    (quick_points "sharing")

let test_rewrite_quick_shape () =
  List.iter
    (fun (x, cells) ->
      match
        (List.assoc_opt "Left-deep" cells, List.assoc_opt "Hill-climbed" cells)
      with
      | Some worst, Some best ->
        Alcotest.(check bool)
          (Printf.sprintf "hill-climbed <= left-deep at N=%.0f" x)
          true
          (best <= worst +. 1e-6)
      | _ -> ())
    (quick_points "rewrite")

let test_replication_flat () =
  let fig =
    Insp_experiments.Ablations.replication ~seeds:[ 1; 2 ]
      ~copy_ranges:[ (1, 1); (3, 3) ] ()
  in
  (* For the deterministic non-object-sensitive heuristics the cost must
     be identical across replication levels. *)
  match fig.Figure.points with
  | [ p1; p3 ] ->
    List.iter
      (fun name ->
        match
          (List.assoc_opt name p1.Figure.cells, List.assoc_opt name p3.Figure.cells)
        with
        | ( Some { Figure.mean_cost = Some a; _ },
            Some { Figure.mean_cost = Some b; _ } ) ->
          Alcotest.(check bool)
            (name ^ " replication-insensitive") true
            (Float.abs (a -. b) /. a < 0.01)
        | _ -> ())
      [ "Comp-Greedy"; "Subtree-bottom-up"; "Comm-Greedy" ]
  | _ -> Alcotest.fail "expected two points"

(* ------------------------------------------------------------------ *)
(* Parallel sweeps                                                     *)

let test_par_map_order () =
  let xs = List.init 17 Fun.id in
  let expect = List.map (fun x -> x * x) xs in
  Alcotest.(check (list int)) "sequential" expect
    (Par_sweep.map ~jobs:1 (fun x -> x * x) xs);
  Alcotest.(check (list int)) "parallel keeps order" expect
    (Par_sweep.map ~jobs:4 (fun x -> x * x) xs);
  Alcotest.(check (list int)) "more workers than cells" [ 9 ]
    (Par_sweep.map ~jobs:8 (fun x -> x * x) [ 3 ]);
  Alcotest.(check (list int)) "empty" [] (Par_sweep.map ~jobs:4 Fun.id [])

let test_par_map_raises_lowest_failure () =
  let boom i = if i mod 3 = 0 then failwith (string_of_int i) else i in
  Alcotest.check_raises "lowest-indexed failure wins" (Failure "3") (fun () ->
      ignore (Par_sweep.map ~jobs:4 boom (List.init 10 (fun i -> i + 1))))

let test_par_map_merges_metrics () =
  (* Worker-side counters must be absorbed into the caller's sink, in
     canonical cell order, whatever the worker count. *)
  let run jobs =
    let (), sink =
      Insp.Obs.with_sink (fun () ->
          ignore
            (Par_sweep.map ~jobs
               (fun i ->
                 Insp.Obs.incr ~by:i "cell.work";
                 Insp.Obs.incr (Printf.sprintf "cell.%d" i))
               (List.init 6 Fun.id)))
    in
    Insp.Obs_export.metrics_csv sink
  in
  let seq = run 1 in
  Alcotest.(check bool) "counters recorded" true
    (contains seq "counter,cell.work,15");
  Alcotest.(check string) "metrics identical at jobs=4" seq (run 4)

let test_run_by_id_jobs_invariant () =
  let run jobs =
    let out, sink =
      Insp.Obs.with_sink (fun () ->
          Suite.run_by_id ~quick:true ~jobs "fig2a")
    in
    (* absorbed cell trees fold into the caller's in canonical cell
       order, so the (path, count) rows are jobs-invariant too *)
    let rows =
      List.map
        (fun (r : Insp.Obs_prof.row) ->
          Printf.sprintf "%s x%d" r.Insp.Obs_prof.path r.Insp.Obs_prof.count)
        (Insp.Obs_prof.rows sink.Insp.Obs.prof)
    in
    match out with
    | Some s -> (s, Insp.Obs_export.metrics_csv sink, rows)
    | None -> Alcotest.fail "fig2a unknown"
  in
  let text1, csv1, rows1 = run 1 in
  let text4, csv4, rows4 = run 4 in
  Alcotest.(check string) "rendered figure identical" text1 text4;
  Alcotest.(check string) "merged metrics identical" csv1 csv4;
  Alcotest.(check bool) "cell spans absorbed" true (List.length rows1 > 1);
  Alcotest.(check (list string)) "merged tree rows identical" rows1 rows4

let test_simcheck_sustains () =
  let s = Option.get (Suite.run_by_id ~quick:true "simcheck") in
  Alcotest.(check bool) "table rendered" true (contains s "simcheck");
  Alcotest.(check bool) "no failures" true (not (contains s "NO"))

let () =
  Alcotest.run "experiments"
    [
      ( "figure",
        [
          Alcotest.test_case "cell_of_costs" `Quick test_cell_of_costs;
          Alcotest.test_case "render" `Quick test_render;
          Alcotest.test_case "series and winners" `Quick
            test_series_and_winners;
        ] );
      ( "suite",
        [
          Alcotest.test_case "ids and quick run" `Quick test_all_ids_covered;
          Alcotest.test_case "unknown id" `Quick test_unknown_id;
          Alcotest.test_case "fig2a shape" `Quick test_fig2a_quick_shape;
          Alcotest.test_case "fig3 thresholds" `Quick
            test_fig3_quick_thresholds;
          Alcotest.test_case "ilp optimality" `Quick test_ilp_quick_optimality;
          Alcotest.test_case "sharing shape" `Quick test_sharing_quick_shape;
          Alcotest.test_case "rewrite shape" `Quick test_rewrite_quick_shape;
          Alcotest.test_case "replication flat" `Quick test_replication_flat;
          Alcotest.test_case "simcheck sustains" `Quick test_simcheck_sustains;
        ] );
      ( "par_sweep",
        [
          Alcotest.test_case "map keeps order" `Quick test_par_map_order;
          Alcotest.test_case "lowest failure raised" `Quick
            test_par_map_raises_lowest_failure;
          Alcotest.test_case "metrics merged canonically" `Quick
            test_par_map_merges_metrics;
          Alcotest.test_case "run_by_id jobs-invariant" `Quick
            test_run_by_id_jobs_invariant;
        ] );
    ]
