(* Tests for the incremental demand/feasibility ledger.  The heart is
   the randomized consistency test: after *every* edit of a random edit
   sequence, [assert_consistent] cross-validates the incremental
   state against the from-scratch [Check.check_graph] oracle, on trees
   and on shared DAGs. *)

module App = Insp.App
module Alloc = Insp.Alloc
module Demand = Insp.Demand
module Check = Insp.Check
module Ledger = Insp.Ledger
module Catalog = Insp.Catalog
module Platform = Insp.Platform
module Servers = Insp.Servers
module Objects = Insp.Objects
module Prng = Insp.Prng
module Graph = Insp.Graph
module Dag = Insp.Dag
module Cse = Insp.Cse
module MW = Insp.Multi_workload

let qtest = Helpers.qtest

let cfg = Helpers.cfg

(* Live processor ids, ascending: [to_alloc] gives their number, and
   ids are handed out densely and never reused. *)
let proc_ids t =
  let n = Alloc.n_procs (Ledger.to_alloc t) in
  let rec go u k acc =
    if k = n then List.rev acc
    else if Ledger.mem_proc t u then go (u + 1) (k + 1) (u :: acc)
    else go (u + 1) k acc
  in
  go 0 0 []

let shuffle rng l =
  let arr = Array.of_list l in
  let n = Array.length arr in
  List.map (fun i -> arr.(i)) (Prng.sample_without_replacement rng n n)

let tiny_env () = (Helpers.tiny_app (), Helpers.tiny_platform ())

(* A hand-built DAG with mixed rates over the tiny catalog: [a] feeds
   three consumers, [c] reads [a] in both slots, and the sinks run at
   1, 2 and 0.5, so [a] and [b] run at 2 and the rest at 1. *)
let mixed_dag () =
  let b = Dag.create_builder ~n_object_types:3 in
  let a = Dag.add_node b ~inputs:[ Dag.Object 0; Dag.Object 1 ] in
  let nb = Dag.add_node b ~inputs:[ Dag.Node a; Dag.Object 2 ] in
  let c = Dag.add_node b ~inputs:[ Dag.Node a; Dag.Node a ] in
  let d = Dag.add_node b ~inputs:[ Dag.Node nb; Dag.Node c ] in
  let e = Dag.add_node b ~inputs:[ Dag.Node a; Dag.Node nb ] in
  let f = Dag.add_node b ~inputs:[ Dag.Node d ] in
  Dag.finish b
    ~objects:(Objects.uniform_freq ~sizes:[| 10.0; 20.0; 40.0 |] ~freq:0.5)
    ~alpha:1.0
    ~roots:[ (f, 1.0); (e, 2.0); (c, 0.5) ]
    ()

(* A CSE-shared DAG of a correlated application set. *)
let cse_dag ~seed ~n =
  let apps, platform = MW.instance ~seed ~n_apps:(2 + (seed mod 3)) ~n_operators:n in
  (Dag.graph (Cse.share_apps apps), platform)

(* ------------------------------------------------------------------ *)
(* Oracle cross-check                                                  *)

(* Multiset comparison of violation lists: identical constructors and
   integer sites; float loads equal within a relative tolerance (the
   incremental sums may differ from the oracle's in the last bits). *)
let rank = function
  | Check.Unassigned_operator _ -> 0
  | Check.Missing_download _ -> 1
  | Check.Extraneous_download _ -> 2
  | Check.Duplicate_download _ -> 3
  | Check.Not_held _ -> 4
  | Check.Compute_overload _ -> 5
  | Check.Nic_overload _ -> 6
  | Check.Server_card_overload _ -> 7
  | Check.Server_link_overload _ -> 8
  | Check.Proc_link_overload _ -> 9

let site = function
  | Check.Unassigned_operator i -> (i, 0, 0)
  | Check.Missing_download { proc; object_type } -> (proc, object_type, 0)
  | Check.Extraneous_download { proc; object_type } -> (proc, object_type, 0)
  | Check.Duplicate_download { proc; object_type } -> (proc, object_type, 0)
  | Check.Not_held { proc; object_type; server } -> (proc, object_type, server)
  | Check.Compute_overload { proc; _ } -> (proc, 0, 0)
  | Check.Nic_overload { proc; _ } -> (proc, 0, 0)
  | Check.Server_card_overload { server; _ } -> (server, 0, 0)
  | Check.Server_link_overload { server; proc; _ } -> (server, proc, 0)
  | Check.Proc_link_overload { proc_a; proc_b; _ } -> (proc_a, proc_b, 0)

let loads = function
  | Check.Compute_overload { load; capacity; _ }
  | Check.Nic_overload { load; capacity; _ }
  | Check.Server_card_overload { load; capacity; _ }
  | Check.Server_link_overload { load; capacity; _ }
  | Check.Proc_link_overload { load; capacity; _ } -> Some (load, capacity)
  | _ -> None

let float_close a b =
  Float.abs (a -. b)
  <= 1e-6 *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

let same_violation a b =
  rank a = rank b
  && site a = site b
  &&
  match (loads a, loads b) with
  | Some (la, ca), Some (lb, cb) -> float_close la lb && float_close ca cb
  | None, None -> true
  | _ -> false

let sort_violations vs =
  List.sort (fun a b -> compare (rank a, site a) (rank b, site b)) vs

let equal_violations va vb =
  List.length va = List.length vb
  && List.for_all2 same_violation (sort_violations va) (sort_violations vb)

(* The ledger against the from-scratch oracle: [Check.check_graph] on
   [Ledger.to_alloc] must report the same violations as
   [Ledger.violations]; raises [Failure] with both lists rendered on
   divergence. *)
let assert_consistent g platform t =
  let oracle = Check.check_graph g platform (Ledger.to_alloc t) in
  (* Translate ledger processor ids to the dense indices [to_alloc]
     assigned them. *)
  let ids = proc_ids t in
  let index = Array.make (List.fold_left max 0 ids + 1) (-1) in
  List.iteri (fun idx id -> index.(id) <- idx) ids;
  let tr u = if u >= 0 && u < Array.length index && index.(u) >= 0 then index.(u) else u in
  let translate = function
    | Check.Missing_download { proc; object_type } ->
      Check.Missing_download { proc = tr proc; object_type }
    | Check.Extraneous_download { proc; object_type } ->
      Check.Extraneous_download { proc = tr proc; object_type }
    | Check.Duplicate_download { proc; object_type } ->
      Check.Duplicate_download { proc = tr proc; object_type }
    | Check.Not_held { proc; object_type; server } ->
      Check.Not_held { proc = tr proc; object_type; server }
    | Check.Compute_overload r ->
      Check.Compute_overload { r with proc = tr r.proc }
    | Check.Nic_overload r -> Check.Nic_overload { r with proc = tr r.proc }
    | Check.Server_link_overload r ->
      Check.Server_link_overload { r with proc = tr r.proc }
    | Check.Proc_link_overload r ->
      let a = tr r.proc_a and b = tr r.proc_b in
      Check.Proc_link_overload { r with proc_a = min a b; proc_b = max a b }
    | (Check.Unassigned_operator _ | Check.Server_card_overload _) as v -> v
  in
  let mine = List.map translate (Ledger.violations t) in
  if not (equal_violations mine oracle) then
    failwith
      (Printf.sprintf
         "ledger diverges from Check.check\nledger (%d):\n%s\noracle (%d):\n%s"
         (List.length mine)
         (Check.explain (sort_violations mine))
         (List.length oracle)
         (Check.explain (sort_violations oracle)))

(* ------------------------------------------------------------------ *)
(* Randomized edit-sequence consistency vs the oracle                  *)

(* A random starting ledger, replayed from a plan of [n_procs] empty
   processors with random configurations and random download entries:
   one entry in ten names a nonexistent server (Not_held plus NIC load
   without card/link load, the asymmetry the oracle encodes), and a
   second server for the same object is a Duplicate_download. *)
let random_start g platform rng ~n_procs ~n_types ~n_servers ~configs =
  let proc _ =
    let config = Prng.choose_list rng configs in
    let downloads =
      List.init (Prng.int rng 4) (fun _ ->
          let obj = Prng.int rng n_types in
          let server =
            if Prng.int rng 10 = 0 then n_servers else Prng.int rng n_servers
          in
          (obj, server))
    in
    { Alloc.config; operators = []; downloads }
  in
  Ledger.of_alloc g platform (Alloc.make (Array.init n_procs proc))

(* One random edit through the placement entry points: buy, sell,
   assign, unassign, merge or reconfigure. *)
let apply_random_edit ?(max_procs = 6) t rng ~n_ops ~configs =
  let live = proc_ids t in
  let unassigned, assigned =
    List.partition (fun i -> Ledger.assignment t i = None) (List.init n_ops Fun.id)
  in
  match Prng.int rng 12 with
  | 0 when List.length live < max_procs ->
    ignore (Ledger.add_proc t (Prng.choose_list rng configs))
  | 1 when live <> [] -> Ledger.remove_proc t (Prng.choose_list rng live)
  | (2 | 3 | 4 | 5 | 6 | 7) when live <> [] && unassigned <> [] ->
    Ledger.add_operator t (Prng.choose_list rng live)
      (Prng.choose_list rng unassigned)
  | (8 | 9) when List.length live >= 2 -> (
    match shuffle rng live with
    | winner :: loser :: _ ->
      if Prng.int rng 2 = 0 then Ledger.merge t ~winner ~loser
      else begin
        (* always a different configuration, so the edit is observable *)
        let current = Catalog.label (Ledger.config t winner) in
        match
          List.filter (fun c -> Catalog.label c <> current) configs
        with
        | [] -> ()
        | others -> Ledger.set_config t winner (Prng.choose_list rng others)
      end
    | _ -> ())
  | (10 | 11) when assigned <> [] ->
    let i = Prng.choose_list rng assigned in
    Ledger.remove_operator t (Option.get (Ledger.assignment t i)) i
  | _ -> ()

(* Probing predicts the commit, at every step of a random edit
   sequence: [probe_add] of a random unassigned node onto a random
   processor gives the committed demand and the committed total of
   every pair it lists, and leaves every other pair as it was;
   [probe_merge] of two random processors gives the merged demand and
   the merged flow towards every third party (committed on a replica,
   and on the ledger itself one time in eight). *)
let check_probes g platform ~seed =
  let rng = Prng.create seed in
  let n_ops = Graph.n_nodes g in
  let n_types = Objects.count g.Graph.objects in
  let n_servers = Servers.n_servers platform.Platform.servers in
  let configs = Catalog.configs platform.Platform.catalog in
  let t = random_start g platform rng ~n_procs:4 ~n_types ~n_servers ~configs in
  let same_demand what (a : Demand.t) (b : Demand.t) =
    List.iter
      (fun (field, x, y) ->
        if not (float_close x y) then
          Alcotest.failf "seed %d: %s %s: probe %g, commit %g" seed what field x y)
      [
        ("compute", a.Demand.compute, b.Demand.compute);
        ("download", a.Demand.download, b.Demand.download);
        ("comm_in", a.Demand.comm_in, b.Demand.comm_in);
        ("comm_out", a.Demand.comm_out, b.Demand.comm_out);
      ]
  in
  let same_flows u (probe : Ledger.probe) before =
    List.iter
      (fun (v, f0) ->
        let f = Ledger.pair_flow t u v in
        let expected =
          Option.value ~default:f0 (List.assoc_opt v probe.Ledger.pair_flows)
        in
        if not (float_close f expected) then
          Alcotest.failf "seed %d: probe_add flow to P%d: probe %g, commit %g" seed v
            expected f)
      before
  in
  for _ = 1 to 120 do
    apply_random_edit ~max_procs:8 t rng ~n_ops ~configs;
    (* keep groups many and small: at least four processors, at most
       half the nodes placed *)
    if List.length (proc_ids t) < 4 then
      ignore (Ledger.add_proc t (Prng.choose_list rng configs));
    let assigned =
      List.filter (fun i -> Ledger.assignment t i <> None) (List.init n_ops Fun.id)
    in
    (if 2 * List.length assigned > n_ops then
       match Ledger.assignment t (Prng.choose_list rng assigned) with
       | Some u -> Ledger.remove_proc t u
       | None -> ());
    let live = proc_ids t in
    let unassigned =
      List.filter (fun i -> Ledger.assignment t i = None) (List.init n_ops Fun.id)
    in
    if live <> [] && unassigned <> [] then begin
      let u = Prng.choose_list rng live and i = Prng.choose_list rng unassigned in
      let probe = Ledger.probe_add t u i in
      let before = List.map (fun v -> (v, Ledger.pair_flow t u v)) live in
      Ledger.add_operator t u i;
      same_demand "probe_add" probe.Ledger.demand (Ledger.demand t u);
      same_flows u probe before
    end;
    (match shuffle rng (proc_ids t) with
    | winner :: loser :: _ ->
      (* the merge, committed on a replica whose ids are the live ids'
         ranks *)
      let probe = Ledger.probe_merge t ~winner ~loser in
      let ids = proc_ids t in
      let rank u = List.length (List.filter (fun v -> v < u) ids) in
      let copy = Ledger.of_alloc g platform (Ledger.to_alloc t) in
      Ledger.merge copy ~winner:(rank winner) ~loser:(rank loser);
      same_demand "probe_merge" probe.Ledger.demand (Ledger.demand copy (rank winner));
      List.iter
        (fun v ->
          if v <> winner && v <> loser then begin
            let f = Ledger.pair_flow copy (rank winner) (rank v) in
            let expected =
              Option.value ~default:0.0 (List.assoc_opt v probe.Ledger.pair_flows)
            in
            if not (float_close f expected) then
              Alcotest.failf "seed %d: probe_merge flow to P%d: probe %g, commit %g"
                seed v expected f
          end)
        ids;
      if Prng.int rng 8 = 0 then Ledger.merge t ~winner ~loser
    | _ -> ());
    assert_consistent g platform t
  done

(* ------------------------------------------------------------------ *)
(* Unit tests                                                          *)

let test_of_alloc_matches_oracle () =
  let app, platform = tiny_env () in
  let alloc =
    Alloc.make
      [|
        {
          Alloc.config = cfg ();
          operators = [ 0; 1 ];
          downloads = [ (0, 0); (1, 0) ];
        };
        {
          Alloc.config = cfg ();
          operators = [ 2; 3 ];
          downloads = [ (0, 1); (2, 1) ];
        };
      |]
  in
  let t = Ledger.of_alloc (Graph.of_app app) platform alloc in
  assert_consistent (Graph.of_app app) platform t;
  Alcotest.(check (list int)) "two procs" [ 0; 1 ] (proc_ids t);
  let d = Ledger.demand t 0 and d' = Demand.of_group (Graph.of_app app) [ 0; 1 ] in
  Helpers.alco_float "compute" d'.Demand.compute d.Demand.compute;
  Helpers.alco_float "download" d'.Demand.download d.Demand.download;
  Helpers.alco_float "comm in" d'.Demand.comm_in d.Demand.comm_in;
  Helpers.alco_float "comm out" d'.Demand.comm_out d.Demand.comm_out;
  Helpers.alco_float "pair flow" (Helpers.pair_flow app alloc 0 1)
    (Ledger.pair_flow t 0 1);
  (* Plan entries naming object types outside the catalog load nothing
     and are reported as Not_held (plus Extraneous_download), as the
     checker reports them: four violations. *)
  let unknown =
    Alloc.make
      [|
        {
          Alloc.config = cfg ();
          operators = [ 0; 1; 2; 3 ];
          downloads = [ (-1, 0); (0, 0); (1, 0); (2, 1); (7, 0) ];
        };
      |]
  in
  let t = Ledger.of_alloc (Graph.of_app app) platform unknown in
  assert_consistent (Graph.of_app app) platform t;
  Alcotest.(check int) "four violations" 4 (List.length (Ledger.violations t))

let test_exact_zero_after_undo () =
  let app, platform = tiny_env () in
  let g = Graph.of_app app in
  (* P0 hosts the root, P1 the rest with the whole download plan.
     Merging P1 into P0 makes every edge internal, and selling P0 then
     empties every card: the aggregates must reset to exact zero, not
     to accumulated float residue (strict equality on purpose). *)
  let t =
    Ledger.of_alloc g platform
      (Alloc.make
         [|
           { Alloc.config = cfg (); operators = [ 0 ]; downloads = [] };
           {
             Alloc.config = cfg ();
             operators = [ 1; 2; 3 ];
             downloads = [ (0, 0); (1, 0); (2, 1) ];
           };
         |])
  in
  Ledger.merge t ~winner:0 ~loser:1;
  let d = Ledger.demand t 0 in
  Alcotest.(check bool) "comm is exact zero" true
    (* lint: allow f1 — exact-zero reset is the property under test *)
    (d.Demand.comm_in = 0.0 && d.Demand.comm_out = 0.0);
  assert_consistent g platform t;
  Ledger.remove_proc t 0;
  Alcotest.(check bool) "cards are exact zero" true
    (* lint: allow f1 — exact-zero reset is the property under test *)
    (Ledger.card_load t 0 = 0.0 && Ledger.card_load t 1 = 0.0);
  assert_consistent g platform t

let test_probe_add_predicts_commit () =
  let app, platform = tiny_env () in
  let t = Ledger.create (Graph.of_app app) platform in
  let u = Ledger.add_proc t (cfg ()) in
  Ledger.add_operator t u 0;
  let v = Ledger.add_proc t (cfg ()) in
  Ledger.add_operator t v 2;
  (* n3 is a child of n2 (on v); probing it onto u must predict the new
     demand and the changed (u, v) pair flow, without mutating. *)
  let probe = Ledger.probe_add t u 3 in
  let before = Ledger.demand t u in
  Alcotest.(check bool) "no mutation" true
    (Ledger.demand t u = before && Ledger.assignment t 3 = None);
  Ledger.add_operator t u 3;
  let after = Ledger.demand t u in
  Helpers.alco_float "compute" after.Demand.compute probe.Ledger.demand.Demand.compute;
  Helpers.alco_float "download" after.Demand.download probe.Ledger.demand.Demand.download;
  Helpers.alco_float "comm in" after.Demand.comm_in probe.Ledger.demand.Demand.comm_in;
  Helpers.alco_float "comm out" after.Demand.comm_out probe.Ledger.demand.Demand.comm_out;
  (match probe.Ledger.pair_flows with
  | [ (v', f) ] ->
    Alcotest.(check int) "pair is (u, v)" v v';
    Helpers.alco_float "pair flow" (Ledger.pair_flow t u v) f
  | l ->
    Alcotest.failf "expected one changed pair, got %d" (List.length l));
  assert_consistent (Graph.of_app app) platform t;
  (* the same prediction, and probe_merge's, on shared DAGs *)
  check_probes (Dag.graph (mixed_dag ())) (Helpers.tiny_platform ()) ~seed:1;
  List.iter
    (fun seed ->
      let g, platform = cse_dag ~seed ~n:15 in
      check_probes g platform ~seed)
    [ 2; 3; 4 ]

(* A producer's stream to one remote processor follows its fastest
   consumer there: consumers at rates 1, then 2, join; then they leave
   one by one.  The stream goes 1 -> 2 -> 1 (times the 10 MB output)
   and returns to exact zero on both ends; the producer's host keeps
   each unassigned consumer as a stream of its own. *)
let test_stream_follows_fastest_consumer () =
  let b = Dag.create_builder ~n_object_types:3 in
  let p = Dag.add_node b ~inputs:[ Dag.Object 0 ] in
  let c1 = Dag.add_node b ~inputs:[ Dag.Node p ] in
  let c2 = Dag.add_node b ~inputs:[ Dag.Node p ] in
  let dag =
    Dag.finish b
      ~objects:(Objects.uniform_freq ~sizes:[| 10.0; 20.0; 40.0 |] ~freq:0.5)
      ~alpha:1.0
      ~roots:[ (c1, 1.0); (c2, 2.0) ]
      ()
  in
  let t = Ledger.create (Dag.graph dag) (Helpers.tiny_platform ()) in
  let u = Ledger.add_proc t (cfg ()) and v = Ledger.add_proc t (cfg ()) in
  let w = Ledger.add_proc t (cfg ()) in
  Ledger.add_operator t u p;
  let expect what ~flow ~comm_out =
    List.iter
      (fun (side, x, y) ->
        Alcotest.(check (float 0.0)) (what ^ ": pair flow " ^ side) flow
          (Ledger.pair_flow t x y))
      [ ("u-v", u, v); ("v-u", v, u) ];
    Alcotest.(check (float 0.0)) (what ^ ": comm_in") flow
      (Ledger.demand t v).Demand.comm_in;
    Alcotest.(check (float 0.0)) (what ^ ": producer comm_out") comm_out
      (Ledger.demand t u).Demand.comm_out
  in
  expect "unassigned" ~flow:0.0 ~comm_out:30.0;
  Ledger.add_operator t v c1;
  expect "rate 1 joins" ~flow:10.0 ~comm_out:30.0;
  Ledger.add_operator t w c2;
  expect "rate 2 on a third processor" ~flow:10.0 ~comm_out:30.0;
  Ledger.merge t ~winner:v ~loser:w;
  expect "rate 2 joins" ~flow:20.0 ~comm_out:20.0;
  Ledger.remove_proc t v;
  Alcotest.(check (float 0.0)) "both leave: producer comm_out" 30.0
    (Ledger.demand t u).Demand.comm_out;
  assert_consistent (Dag.graph dag) (Helpers.tiny_platform ()) t

let test_merge_consistent () =
  let app, platform = tiny_env () in
  let t = Ledger.create (Graph.of_app app) platform in
  let u = Ledger.add_proc t (cfg ()) in
  List.iter (fun i -> Ledger.add_operator t u i) [ 0; 1 ];
  let v = Ledger.add_proc t (cfg ()) in
  List.iter (fun i -> Ledger.add_operator t v i) [ 2; 3 ];
  Ledger.merge t ~winner:u ~loser:v;
  Alcotest.(check (list int)) "union" [ 0; 1; 2; 3 ] (Ledger.operators_of t u);
  Alcotest.(check bool) "loser gone" false (Ledger.mem_proc t v);
  Helpers.alco_float "internal edges cancel" 0.0
    (let d = Ledger.demand t u in
     d.Demand.comm_in +. d.Demand.comm_out);
  assert_consistent (Graph.of_app app) platform t

(* 30 random edits from a few empty processors, each followed by the
   oracle cross-check. *)
let check_edits g platform rng =
  let n_ops = Graph.n_nodes g in
  let n_types = Objects.count g.Graph.objects in
  let n_servers = Servers.n_servers platform.Platform.servers in
  let configs = Catalog.configs platform.Platform.catalog in
  let t =
    random_start g platform rng ~n_procs:(3 + Prng.int rng 3) ~n_types
      ~n_servers ~configs
  in
  assert_consistent g platform t;
  for _ = 1 to 30 do
    apply_random_edit t rng ~n_ops ~configs;
    assert_consistent g platform t
  done

(* On the case's tree, then on a CSE-shared DAG and on the mixed-rate
   DAG. *)
let ledger_matches_oracle =
  qtest ~count:120 "ledger violation set matches Check.check after every edit"
    Helpers.instance_case (fun case ->
      let inst = Helpers.instance_of_case case in
      let seed, n_idx, _ = case in
      let rng = Prng.create (seed + 7919) in
      (try
         check_edits (Graph.of_app inst.Insp.Instance.app) inst.Insp.Instance.platform rng;
         let g, platform = cse_dag ~seed ~n:[| 5; 10; 15; 20 |].(n_idx) in
         check_edits g platform rng;
         check_edits (Dag.graph (mixed_dag ())) (Helpers.tiny_platform ()) rng
       with Failure msg -> QCheck.Test.fail_report msg);
      true)

(* [Ledger.neighbours] against the graph: the hosts of the producers
   and consumers of each processor's operators, other than itself,
   ascending, after every edit of a random sequence. *)
let check_neighbours g platform rng =
  let n_ops = Graph.n_nodes g in
  let configs = Catalog.configs platform.Platform.catalog in
  let t =
    random_start g platform rng ~n_procs:(3 + Prng.int rng 6)
      ~n_types:(Objects.count g.Graph.objects)
      ~n_servers:(Servers.n_servers platform.Platform.servers) ~configs
  in
  let expected u =
    List.concat_map
      (fun i ->
        Graph.producers g i
        @ List.init (Graph.n_consumers g i) (Graph.consumer g i))
      (Ledger.operators_of t u)
    |> List.filter_map (fun j ->
           match Ledger.assignment t j with
           | Some v when v <> u -> Some v
           | Some _ | None -> None)
    |> List.sort_uniq Int.compare
  in
  for step = 0 to 60 do
    if step > 0 then apply_random_edit ~max_procs:12 t rng ~n_ops ~configs;
    List.iter
      (fun u ->
        let got = Ledger.neighbours t u and want = expected u in
        if got <> want then
          failwith
            (Printf.sprintf "step %d: neighbours of %d are [%s], not [%s]" step
               u
               (String.concat "; " (List.map string_of_int got))
               (String.concat "; " (List.map string_of_int want))))
      (proc_ids t)
  done

let neighbours_match_graph =
  qtest ~count:60 "neighbours = hosts of the graph neighbours"
    Helpers.instance_case (fun case ->
      let inst = Helpers.instance_of_case case in
      let seed, n_idx, _ = case in
      let rng = Prng.create (seed + 104729) in
      (try
         check_neighbours (Graph.of_app inst.Insp.Instance.app)
           inst.Insp.Instance.platform rng;
         let g, platform = cse_dag ~seed ~n:[| 5; 10; 15; 20 |].(n_idx) in
         check_neighbours g platform rng;
         check_neighbours (Dag.graph (mixed_dag ())) (Helpers.tiny_platform ()) rng
       with Failure msg -> QCheck.Test.fail_report msg);
      true)

(* Everything a caller can observe about one live processor. *)
let observe t u =
  let d = Ledger.demand t u in
  let flows =
    List.filter_map
      (fun v ->
        let f = Ledger.pair_flow t u v in
        if v = u || Float.compare f 0.0 = 0 then None else Some (v, f))
      (proc_ids t)
  in
  ( (Catalog.label (Ledger.config t u), Ledger.operators_of t u),
    [ d.Demand.compute; d.Demand.download; d.Demand.comm_in;
      d.Demand.comm_out ],
    flows )

(* probe_merge of [winner] with every other live processor: pair flows
   strictly ascending in the third party, each the sum of the two
   processors' flows towards it. *)
let check_probe_merge t winner =
  List.iter
    (fun loser ->
      if loser <> winner then begin
        let flows = (Ledger.probe_merge t ~winner ~loser).Ledger.pair_flows in
        let vs = List.map fst flows in
        if vs <> List.sort_uniq Int.compare vs then
          failwith (Printf.sprintf "probe_merge %d<-%d: pair_flows not ascending" winner loser);
        List.iter
          (fun (v, f) ->
            let expected = Ledger.pair_flow t winner v +. Ledger.pair_flow t loser v in
            if not (Helpers.float_eq f expected) then
              failwith
                (Printf.sprintf "probe_merge %d<-%d: flow to %d is %g, not %g"
                   winner loser v f expected))
          flows
      end)
    (proc_ids t)

(* Long mixed edit sequences on 500-operator trees: after every step the
   ledger agrees with the oracle, probe_merge lists its pair flows in
   ascending order, and exactly the processors whose observable state
   changed have a new generation stamp. *)
let test_long_edit_sequences () =
  List.iter
    (fun seed ->
      let inst = Helpers.instance ~n:500 ~seed () in
      let app = inst.Insp.Instance.app in
      let platform = inst.Insp.Instance.platform in
      let rng = Prng.create seed in
      let n_ops = App.n_operators app in
      let n_types = Objects.count (App.objects app) in
      let n_servers = Servers.n_servers platform.Platform.servers in
      let configs = Catalog.configs platform.Platform.catalog in
      let t =
        random_start (Graph.of_app app) platform rng ~n_procs:8 ~n_types
          ~n_servers ~configs
      in
      for step = 1 to 1200 do
        let before =
          List.map
            (fun u -> (u, Ledger.generation t u, observe t u))
            (proc_ids t)
        in
        apply_random_edit ~max_procs:24 t rng ~n_ops ~configs;
        assert_consistent (Graph.of_app app) platform t;
        List.iter
          (fun (u, generation, seen) ->
            if Ledger.mem_proc t u then begin
              let bumped = Ledger.generation t u <> generation in
              let changed = compare (observe t u) seen <> 0 in
              if bumped <> changed then
                Alcotest.failf "seed %d step %d: P%d bumped=%b changed=%b" seed
                  step u bumped changed
            end)
          before;
        match proc_ids t with
        | [] -> ()
        | live -> check_probe_merge t (Prng.choose_list rng live)
      done)
    [ 11; 12 ]

let () =
  Alcotest.run "ledger"
    [
      ( "unit",
        [
          Alcotest.test_case "of_alloc matches oracle" `Quick
            test_of_alloc_matches_oracle;
          Alcotest.test_case "exact zero after undo" `Quick
            test_exact_zero_after_undo;
          Alcotest.test_case "probe predicts commit" `Quick
            test_probe_add_predicts_commit;
          Alcotest.test_case "merge" `Quick test_merge_consistent;
          Alcotest.test_case "stream follows its fastest consumer" `Quick
            test_stream_follows_fastest_consumer;
        ] );
      ( "random",
        [
          ledger_matches_oracle;
          neighbours_match_graph;
          Alcotest.test_case "long edit sequences" `Quick
            test_long_edit_sequences;
        ] );
    ]
