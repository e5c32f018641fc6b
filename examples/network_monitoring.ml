(* Network monitoring (paper §1): routers export flow summaries; a
   continuous query joins them against a slowly-changing prefix table —
   a classic LEFT-DEEP join tree, the shape the paper's NP-hardness
   proof uses.  We compare all heuristics against the exact
   branch-and-bound optimum on a homogeneous platform (the paper's §5
   CPLEX comparison, at example scale).

     dune exec examples/network_monitoring.exe *)

let () =
  (* Object types: 0 = prefix table (reused by every join stage),
     1..6 = per-router flow summaries. *)
  let sizes = [| 8.0; 20.0; 24.0; 18.0; 26.0; 15.0; 22.0 |] in
  let objects = Insp.Objects.uniform_freq ~sizes ~freq:0.5 in

  (* Left-deep join chain: each stage joins the running result with one
     router stream; the prefix table (object 0) is consulted by three of
     the stages, so its placement is shared work. *)
  let leaf_objects = [| 0; 1; 2; 0; 3; 0; 4 |] in
  let tree = Insp.Optree.left_deep ~n_operators:6 ~objects:leaf_objects in
  let app =
    Insp.App.make ~rho:1.0 ~base_work:8000.0 ~work_factor:0.19 ~tree ~objects
      ~alpha:0.9 ()
  in
  Format.printf "left-deep continuous query:@.%a@." Insp.Optree.pp tree;
  Format.printf "prefix table popularity: %d operators use it@.@."
    (Insp.Optree.object_popularity tree).(0);

  (* Homogeneous platform: one processor model (CONSTR-HOM), three
     collectors each exporting a subset of the streams. *)
  let holds =
    [|
      (* collector 0: prefix table + routers 1-2 *)
      [| true; true; true; false; false; false; false |];
      (* collector 1: routers 3-4 *)
      [| false; false; false; true; true; false; false |];
      (* collector 2: prefix table + routers 5-6 *)
      [| true; false; false; false; false; true; true |];
    |]
  in
  let servers = Insp.Servers.make ~cards:(Array.make 3 10000.0) ~holds in
  let catalog =
    Insp.Catalog.homogeneous Insp.Catalog.dell_2008 ~cpu_index:4 ~nic_index:3
  in
  let platform = Insp.Platform.make ~catalog ~servers () in

  (* Exact optimum (the role CPLEX plays in the paper). *)
  (match Insp.Exact.solve (Insp.Graph.of_app app) platform with
  | Ok r ->
    Format.printf "exact optimum: %d processors ($%.0f), %s@."
      r.Insp.Exact.n_procs r.cost
      (if r.proven then "proven optimal" else "search truncated")
  | Error e -> Format.printf "exact solver: %s@." e);

  (* Heuristics. *)
  List.iter
    (fun ((h : Insp.Solve.heuristic), result) ->
      match result with
      | Ok (o : Insp.Solve.outcome) ->
        Format.printf "%-20s %d processors ($%.0f)@." h.name o.n_procs o.cost
      | Error f ->
        Format.printf "%-20s %s@." h.name (Insp.Solve.failure_message f))
    (Insp.Solve.run_all ~seed:3 app platform)
