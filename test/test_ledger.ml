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

let cfg ?(cpu = 4) ?(nic = 4) () =
  let c = Catalog.dell_2008 in
  { Catalog.cpu = (Catalog.cpus c).(cpu); nic = (Catalog.nics c).(nic) }

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
  let ids = Ledger.proc_ids t in
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

let apply_random_edit ?(max_procs = 6) t rng ~n_ops ~n_types ~n_servers ~configs =
  let live = Ledger.proc_ids t in
  let unassigned =
    List.filter (fun i -> Ledger.assignment t i = None) (List.init n_ops Fun.id)
  in
  let assigned =
    List.filter (fun i -> Ledger.assignment t i <> None) (List.init n_ops Fun.id)
  in
  match Prng.int rng 10 with
  | 0 when List.length live < max_procs ->
    ignore (Ledger.add_proc t (Prng.choose_list rng configs))
  | 1 when live <> [] -> Ledger.remove_proc t (Prng.choose_list rng live)
  | (2 | 3 | 4) when live <> [] && unassigned <> [] ->
    Ledger.add_operator t (Prng.choose_list rng live)
      (Prng.choose_list rng unassigned)
  | 5 when assigned <> [] ->
    Ledger.remove_operator t (Prng.choose_list rng assigned)
  | (6 | 7) when live <> [] ->
    let u = Prng.choose_list rng live in
    let obj = Prng.int rng n_types in
    (* One edit in ten aims at a nonexistent server: Not_held plus NIC
       load without card/link load, the asymmetry the oracle encodes. *)
    let server =
      if Prng.int rng 10 = 0 then n_servers else Prng.int rng n_servers
    in
    Ledger.add_download t u ~obj ~server
  | 8 when live <> [] ->
    let u = Prng.choose_list rng live in
    (match Ledger.downloads_of t u with
    | [] -> ()
    | dls ->
      let k, l = Prng.choose_list rng dls in
      Ledger.remove_download t u ~obj:k ~server:l)
  | 9 when List.length live >= 2 -> (
    match Prng.shuffle_list rng live with
    | winner :: loser :: _ ->
      if Prng.bool rng then Ledger.merge t ~winner ~loser
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
  let t = Ledger.create g platform in
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
  for _ = 1 to 4 do
    ignore (Ledger.add_proc t (Prng.choose_list rng configs))
  done;
  for _ = 1 to 120 do
    apply_random_edit ~max_procs:8 t rng ~n_ops ~n_types ~n_servers ~configs;
    (* keep groups many and small: at least four processors, at most
       half the nodes placed *)
    if Ledger.n_procs t < 4 then ignore (Ledger.add_proc t (Prng.choose_list rng configs));
    let assigned =
      List.filter (fun i -> Ledger.assignment t i <> None) (List.init n_ops Fun.id)
    in
    if 2 * List.length assigned > n_ops then
      Ledger.remove_operator t (Prng.choose_list rng assigned);
    let live = Ledger.proc_ids t in
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
    (match Prng.shuffle_list rng (Ledger.proc_ids t) with
    | winner :: loser :: _ ->
      (* the merge, committed on a replica whose ids are the live ids'
         ranks *)
      let probe = Ledger.probe_merge t ~winner ~loser in
      let ids = Ledger.proc_ids t in
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
  Alcotest.(check int) "two procs" 2 (Ledger.n_procs t);
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
  let t = Ledger.create (Graph.of_app app) platform in
  let u = Ledger.add_proc t (cfg ()) in
  List.iter (fun i -> Ledger.add_operator t u i) [ 0; 1; 2; 3 ];
  List.iter
    (fun (k, l) -> Ledger.add_download t u ~obj:k ~server:l)
    [ (0, 0); (1, 0); (2, 1) ];
  List.iter
    (fun (k, l) -> Ledger.remove_download t u ~obj:k ~server:l)
    [ (0, 0); (1, 0); (2, 1) ];
  List.iter (fun i -> Ledger.remove_operator t i) [ 0; 1; 2; 3 ];
  (* Strict equality on purpose: the empty group must reset to exact
     zero, not to accumulated float residue. *)
  Alcotest.(check bool) "compute is exact zero" true
    (* lint: allow f1 — exact-zero reset is the property under test *)
    (Ledger.compute_load t u = 0.0);
  (* lint: allow f1 — exact-zero reset is the property under test *)
  Alcotest.(check bool) "nic is exact zero" true (Ledger.nic_load t u = 0.0);
  assert_consistent (Graph.of_app app) platform t

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
  Ledger.add_operator t v c2;
  expect "rate 2 joins" ~flow:20.0 ~comm_out:20.0;
  Ledger.remove_operator t c2;
  expect "rate 2 leaves" ~flow:10.0 ~comm_out:30.0;
  Ledger.remove_operator t c1;
  expect "rate 1 leaves" ~flow:0.0 ~comm_out:30.0;
  assert_consistent (Dag.graph dag) (Helpers.tiny_platform ()) t

let test_violations_touching_anchored () =
  let app, platform = tiny_env () in
  let t = Ledger.create (Graph.of_app app) platform in
  let u = Ledger.add_proc t (cfg ()) in
  Ledger.add_operator t u 1;
  (* n1 needs o0 and o1: no plan yet -> two missing downloads. *)
  Ledger.add_download t u ~obj:0 ~server:5;
  (* invalid server *)
  let vs = Ledger.violations_touching t [ u ] in
  let has pred = List.exists pred vs in
  Alcotest.(check bool) "not held" true
    (has (function
      | Check.Not_held { object_type = 0; server = 5; _ } -> true
      | _ -> false));
  Alcotest.(check bool) "missing o1" true
    (has (function
      | Check.Missing_download { object_type = 1; _ } -> true
      | _ -> false));
  (* Same object from a second (valid) server: duplicate. *)
  Ledger.add_download t u ~obj:0 ~server:0;
  Alcotest.(check bool) "duplicate" true
    (List.exists
       (function
         | Check.Duplicate_download { object_type = 0; _ } -> true
         | _ -> false)
       (Ledger.violations_touching t [ u ]));
  assert_consistent (Graph.of_app app) platform t

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
  let t = Ledger.create g platform in
  for _ = 1 to 3 + Prng.int rng 3 do
    ignore (Ledger.add_proc t (Prng.choose_list rng configs))
  done;
  for _ = 1 to 30 do
    apply_random_edit t rng ~n_ops ~n_types ~n_servers ~configs;
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

(* Everything a caller can observe about one live processor. *)
let observe t u =
  let d = Ledger.demand t u in
  let flows =
    List.filter_map
      (fun v ->
        let f = Ledger.pair_flow t u v in
        if v = u || Float.compare f 0.0 = 0 then None else Some (v, f))
      (Ledger.proc_ids t)
  in
  ( (Catalog.label (Ledger.config t u), Ledger.operators_of t u,
     Ledger.downloads_of t u),
    [ d.Demand.compute; d.Demand.download; d.Demand.comm_in;
      d.Demand.comm_out; Ledger.nic_load t u ],
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
    (Ledger.proc_ids t)

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
      let t = Ledger.create (Graph.of_app app) platform in
      for step = 1 to 1200 do
        let before =
          List.map
            (fun u -> (u, Ledger.generation t u, observe t u))
            (Ledger.proc_ids t)
        in
        apply_random_edit ~max_procs:24 t rng ~n_ops ~n_types ~n_servers
          ~configs;
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
        match Ledger.proc_ids t with
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
          Alcotest.test_case "violations_touching" `Quick
            test_violations_touching_anchored;
          Alcotest.test_case "merge" `Quick test_merge_consistent;
          Alcotest.test_case "stream follows its fastest consumer" `Quick
            test_stream_follows_fastest_consumer;
        ] );
      ( "random",
        [
          ledger_matches_oracle;
          Alcotest.test_case "long edit sequences" `Quick
            test_long_edit_sequences;
        ] );
    ]
