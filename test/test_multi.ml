(* Tests for the multi-application extension: DAG model, common-
   subexpression sharing, DAG constraint checking and DAG placement. *)

module Dag = Insp.Dag
module Cse = Insp.Cse
module Dag_check = Insp.Dag_check
module Dag_place = Insp.Dag_place
module MW = Insp.Multi_workload
module Optree = Insp.Optree
module Objects = Insp.Objects
module App = Insp.App
module Alloc = Insp.Alloc
module Check = Insp.Check
module Demand = Insp.Demand
module Prng = Insp.Prng

let qtest = Helpers.qtest

(* Structural reads through the DAG's operator-graph view. *)
let consumers dag i =
  let g = Dag.graph dag in
  List.init (Insp.Graph.n_consumers g i) (Insp.Graph.consumer g i)

let n_roots dag = Array.length (Dag.graph dag).Insp.Graph.roots

let objects3 () =
  Objects.uniform_freq ~sizes:[| 10.0; 20.0; 40.0 |] ~freq:0.5

(* ------------------------------------------------------------------ *)
(* Dag construction                                                    *)

let test_builder_basic () =
  let b = Dag.create_builder ~n_object_types:3 in
  let a = Dag.add_node b ~inputs:[ Dag.Object 0; Dag.Object 1 ] in
  let c = Dag.add_node b ~inputs:[ Dag.Node a; Dag.Object 2 ] in
  let dag =
    Dag.finish b ~objects:(objects3 ()) ~alpha:1.0
      ~roots:[ (c, 2.0); (a, 0.5) ]
      ()
  in
  Alcotest.(check int) "2 nodes" 2 (Dag.n_nodes dag);
  (* a output = 30; c input = 30 + 40 *)
  Helpers.alco_float "a output" 30.0 (Dag.node dag a).Dag.output;
  Helpers.alco_float "c work (alpha=1)" 70.0 (Dag.node dag c).Dag.work;
  (* a feeds c (rate 2.0) and a sink at 0.5 -> max 2.0 *)
  Helpers.alco_float "a rate is max of consumers" 2.0 (Dag.node dag a).Dag.rate;
  Alcotest.(check (list int)) "consumers of a" [ c ] (consumers dag a);
  let g = Dag.graph dag in
  Alcotest.(check (list int)) "a downloads o0 and o1" [ 0; 1 ] (Helpers.leaves g a);
  Alcotest.(check (list int)) "o2 users" [ c ]
    (List.filter (fun i -> List.mem 2 (Helpers.leaves g i)) [ a; c ])

let test_builder_validation () =
  let b = Dag.create_builder ~n_object_types:1 in
  Alcotest.check_raises "dangling input"
    (Invalid_argument "Dag.add_node: dangling node") (fun () ->
      ignore (Dag.add_node b ~inputs:[ Dag.Node 5 ]));
  Alcotest.check_raises "bad arity"
    (Invalid_argument "Dag.add_node: arity must be 1-2") (fun () ->
      ignore (Dag.add_node b ~inputs:[]));
  let a = Dag.add_node b ~inputs:[ Dag.Object 0 ] in
  let _c = Dag.add_node b ~inputs:[ Dag.Node a ] in
  (* node a feeds c, but c feeds nothing and is not a root *)
  Alcotest.check_raises "unconsumed node"
    (Invalid_argument "Dag.finish: node 1 feeds nothing") (fun () ->
      ignore
        (Dag.finish b ~objects:(objects3 ()) ~alpha:1.0 ~roots:[ (a, 1.0) ] ()))

let test_of_apps () =
  let app = Helpers.tiny_app () in
  let dag = Dag.of_apps [ app; app ] in
  Alcotest.(check int) "nodes duplicated" 8 (Dag.n_nodes dag);
  Alcotest.(check int) "two roots" 2 (n_roots dag);
  (* work/output copied from the tree model *)
  let r0 = (Dag.graph dag).Insp.Graph.roots.(0) in
  Helpers.alco_float "rho" (App.rho app) (Insp.Graph.rate (Dag.graph dag) r0);
  Helpers.alco_float "root output" 80.0 (Dag.node dag r0).Dag.output

(* ------------------------------------------------------------------ *)
(* CSE                                                                 *)

let test_cse_identical_apps_collapse () =
  let app = Helpers.tiny_app () in
  let dag = Cse.share_apps [ app; app; app ] in
  (* Identical trees share every node. *)
  Alcotest.(check int) "fully shared" (App.n_operators app) (Dag.n_nodes dag);
  Alcotest.(check int) "three sinks" 3 (n_roots dag)

(* Hash-cons one application per (tree, rho) over a common catalog. *)
let share ~objects ~alpha ~trees () =
  Cse.share_apps
    (List.map (fun (tree, rho) -> App.make ~rho ~tree ~objects ~alpha ()) trees)

let test_cse_commutative () =
  (* (o0 + o1) and (o1 + o0) are the same computation. *)
  let t1 = Optree.of_spec ~n_object_types:2 (Optree.Op (Optree.Obj 0, Optree.Obj 1)) in
  let t2 = Optree.of_spec ~n_object_types:2 (Optree.Op (Optree.Obj 1, Optree.Obj 0)) in
  let objects = Objects.uniform_freq ~sizes:[| 5.0; 6.0 |] ~freq:0.5 in
  let dag =
    share ~objects ~alpha:1.0 ~trees:[ (t1, 1.0); (t2, 2.0) ] ()
  in
  Alcotest.(check int) "one shared node" 1 (Dag.n_nodes dag);
  (* the shared node must run at the faster consumer's rate *)
  Helpers.alco_float "max rate" 2.0 (Dag.node dag 0).Dag.rate

let test_cse_distinct_stay_distinct () =
  let t1 = Optree.of_spec ~n_object_types:2 (Optree.Op (Optree.Obj 0, Optree.Obj 0)) in
  let t2 = Optree.of_spec ~n_object_types:2 (Optree.Op (Optree.Obj 1, Optree.Obj 1)) in
  let objects = Objects.uniform_freq ~sizes:[| 5.0; 6.0 |] ~freq:0.5 in
  let dag = share ~objects ~alpha:1.0 ~trees:[ (t1, 1.0); (t2, 1.0) ] () in
  Alcotest.(check int) "two nodes" 2 (Dag.n_nodes dag)

let cse_never_grows =
  qtest ~count:50 "sharing never increases nodes, work or downloads"
    QCheck.(pair (int_range 0 500) (int_range 1 4))
    (fun (seed, n_apps) ->
      let apps, _ = MW.instance ~seed ~n_apps ~n_operators:20 in
      let s = Cse.savings apps in
      s.Cse.shared_nodes <= s.Cse.unshared_nodes
      && s.Cse.shared_work <= s.Cse.unshared_work +. 1e-6
      && s.Cse.shared_downloads <= s.Cse.unshared_downloads +. 1e-6)

let cse_preserves_roots =
  qtest ~count:50 "shared DAG keeps one sink per application"
    QCheck.(pair (int_range 0 500) (int_range 1 4))
    (fun (seed, n_apps) ->
      let apps, _ = MW.instance ~seed ~n_apps ~n_operators:15 in
      let dag = Cse.share_apps apps in
      n_roots dag = n_apps)

(* The DAG's graph view against an oracle built from the node inputs:
   producers are the [Node] inputs and leaves the [Object] inputs, each
   in slot order, and consumers every node reading a producer, once,
   ascending. *)
let layout_matches dag =
  let g = Dag.graph dag and n = Dag.n_nodes dag in
  let readers = Array.make n [] in
  for i = n - 1 downto 0 do
    List.iter
      (function
        | Dag.Node j ->
          if not (List.mem i readers.(j)) then readers.(j) <- i :: readers.(j)
        | Dag.Object _ -> ())
      (Dag.inputs dag i)
  done;
  Insp.Graph.n_nodes g = n
  && g.Insp.Graph.unshared = Array.for_all (fun cs -> List.length cs <= 1) readers
  && List.for_all
       (fun i ->
         let ins = Dag.inputs dag i in
         Helpers.producers g i
         = List.filter_map (function Dag.Node j -> Some j | Dag.Object _ -> None) ins
         && Helpers.leaves g i
            = List.filter_map (function Dag.Object k -> Some k | Dag.Node _ -> None) ins
         && consumers dag i = readers.(i))
       (List.init n Fun.id)

let layout_dags =
  qtest ~count:50 "flat rows = node inputs, CSE on and off"
    QCheck.(pair (int_range 0 500) (int_range 1 4))
    (fun (seed, n_apps) ->
      let apps, _ = MW.instance ~seed ~n_apps ~n_operators:20 in
      layout_matches (Dag.of_apps apps) && layout_matches (Cse.share_apps apps))

(* ------------------------------------------------------------------ *)
(* Dag_check                                                           *)

let two_proc_dag () =
  (* a (objects) on P0; b consuming a twice... single consumer here:
     a -> b, b is root. *)
  let b = Dag.create_builder ~n_object_types:3 in
  let a = Dag.add_node b ~inputs:[ Dag.Object 0; Dag.Object 1 ] in
  let c = Dag.add_node b ~inputs:[ Dag.Node a; Dag.Object 2 ] in
  let dag = Dag.finish b ~objects:(objects3 ()) ~alpha:1.0 ~roots:[ (c, 1.0) ] () in
  (dag, a, c)

let cfg = Helpers.cfg

(* The all-pairs constraint (5) oracle: for every processor pair, list
   both processors' outgoing streams from scratch — one per (producer,
   destination processor) at the fastest consuming rate there — and sum
   those crossing the pair. *)
let outgoing_streams dag alloc u =
  List.concat_map
    (fun i ->
      let out = (Dag.node dag i).Dag.output in
      let per_dest =
        List.fold_left
          (fun acc c ->
            match Alloc.assignment alloc c with
            | Some v when v <> u ->
              let rate = (Dag.node dag c).Dag.rate in
              let prev = try List.assoc v acc with Not_found -> 0.0 in
              (v, Float.max rate prev) :: List.remove_assoc v acc
            | Some _ | None -> acc)
          [] (consumers dag i)
      in
      List.map (fun (v, rate) -> (i, v, out *. rate)) per_dest)
    (Alloc.operators_of alloc u)

let pair_flow dag alloc u v =
  let one_way src dst =
    List.fold_left
      (fun acc (_, dest, f) -> if dest = dst then acc +. f else acc)
      0.0
      (outgoing_streams dag alloc src)
  in
  one_way u v +. one_way v u

let oracle_proc_link dag platform alloc =
  let capacity = platform.Insp.Platform.proc_link in
  let n = Alloc.n_procs alloc in
  let acc = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      let load = pair_flow dag alloc u v in
      if load > (capacity *. (1.0 +. 1e-9)) +. 1e-9 then
        acc :=
          Check.Proc_link_overload { proc_a = u; proc_b = v; load; capacity }
          :: !acc
    done
  done;
  List.rev !acc

let test_dag_check_feasible () =
  let dag, a, c = two_proc_dag () in
  let platform = Helpers.tiny_platform () in
  let alloc =
    Alloc.make
      [|
        { Alloc.config = cfg (); operators = [ a ]; downloads = [ (0, 0); (1, 0) ] };
        { Alloc.config = cfg (); operators = [ c ]; downloads = [ (2, 1) ] };
      |]
  in
  Alcotest.(check string) "feasible" "feasible"
    (Check.explain (Dag_check.check dag platform alloc));
  (* a's output (30 MB at rate 1) crosses the pair link *)
  Helpers.alco_float "pair flow" 30.0 (pair_flow dag alloc 0 1)

let test_dag_check_stream_dedup () =
  (* Node a consumed by two nodes on the SAME remote processor: one
     stream, not two. *)
  let b = Dag.create_builder ~n_object_types:3 in
  let a = Dag.add_node b ~inputs:[ Dag.Object 0; Dag.Object 1 ] in
  let c1 = Dag.add_node b ~inputs:[ Dag.Node a; Dag.Object 2 ] in
  let c2 = Dag.add_node b ~inputs:[ Dag.Node a ] in
  let dag =
    Dag.finish b ~objects:(objects3 ()) ~alpha:1.0
      ~roots:[ (c1, 1.0); (c2, 2.0) ]
      ()
  in
  let platform = Helpers.tiny_platform () in
  let alloc =
    Alloc.make
      [|
        { Alloc.config = cfg (); operators = [ a ]; downloads = [ (0, 0); (1, 0) ] };
        { Alloc.config = cfg (); operators = [ c1; c2 ]; downloads = [ (2, 1) ] };
      |]
  in
  Alcotest.(check string) "feasible" "feasible"
    (Check.explain (Dag_check.check dag platform alloc));
  (* one stream at the fastest consuming rate: 30 MB * max(1,2) = 60 *)
  Helpers.alco_float "dedup at max rate" 60.0 (pair_flow dag alloc 0 1);
  let d = (Check.measure (Dag.graph dag) alloc).Check.demands.(0) in
  Helpers.alco_float "comm_out deduped" 60.0 d.Demand.comm_out;
  (* conservative group demand counts both consumers *)
  let g = Demand.of_group (Dag.graph dag) [ a ] in
  Helpers.alco_float "conservative comm_out" 90.0 g.Demand.comm_out

let test_dag_check_rate_weighted_compute () =
  let dag, a, c = two_proc_dag () in
  ignore c;
  let platform = Helpers.tiny_platform () in
  (* put everything on one tiny CPU and scale rates via a faster root *)
  let alloc =
    Alloc.make
      [|
        {
          Alloc.config = cfg ~cpu:0 ();
          operators = [ 0; 1 ];
          downloads = [ (0, 0); (1, 0); (2, 1) ];
        };
      |]
  in
  ignore a;
  let d = (Check.measure (Dag.graph dag) alloc).Check.demands.(0) in
  (* w_a = 30, w_c = 70, rates 1 -> 100 Mops/s *)
  Helpers.alco_float "compute" 100.0 d.Demand.compute;
  Alcotest.(check string) "fits cheapest" "feasible"
    (Check.explain (Dag_check.check dag platform alloc))

(* A plan entry naming an object type outside the catalog is reported
   as Not_held, not raised. *)
let test_dag_check_unknown_object_type () =
  let app = Helpers.tiny_app () in
  let dag = Dag.of_apps [ app ] in
  let platform = Helpers.tiny_platform () in
  let alloc =
    Alloc.make
      [|
        {
          Alloc.config = cfg ();
          operators = [ 0; 1; 2; 3 ];
          downloads = [ (-1, 0); (0, 0); (1, 0); (2, 1); (7, 0) ];
        };
      |]
  in
  let vs = Dag_check.check dag platform alloc in
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Printf.sprintf "o%d not held" k)
        true
        (List.exists
           (function
             | Check.Not_held { proc = 0; object_type; server = 0 } ->
               object_type = k
             | _ -> false)
           vs))
    [ -1; 7 ]

(* The per-processor DAG demand from scratch: one stream per (producer,
   destination processor) at the fastest consuming rate there.  compute
   sums the members in id order; comm_in sums by (consumer id, input
   slot), each stream at its first consumer on the processor; comm_out
   sums by producer id, destinations in the order the producer's
   ascending consumers first reach them. *)
let oracle_proc_demand dag alloc u =
  let host i = Alloc.host alloc i in
  let stream_rate j v =
    List.fold_left
      (fun m c -> if host c = v then Float.max m (Dag.node dag c).Dag.rate else m)
      0.0 (consumers dag j)
  in
  let members = Alloc.operators_of alloc u in
  let compute =
    List.fold_left
      (fun acc i -> acc +. ((Dag.node dag i).Dag.rate *. (Dag.node dag i).Dag.work))
      0.0 members
  in
  let objects =
    List.concat_map
      (fun i ->
        List.filter_map
          (function Dag.Object k -> Some k | Dag.Node _ -> None)
          (Dag.inputs dag i))
      members
    |> List.sort_uniq compare
  in
  let download =
    List.fold_left
      (fun acc k -> acc +. Objects.rate (Dag.graph dag).Insp.Graph.objects k)
      0.0 objects
  in
  let comm_in, _ =
    List.fold_left
      (fun (acc, seen) c ->
        List.fold_left
          (fun (acc, seen) input ->
            match input with
            | Dag.Node j when host j <> u && not (List.mem j seen) ->
              (acc +. ((Dag.node dag j).Dag.output *. stream_rate j u), j :: seen)
            | Dag.Node _ | Dag.Object _ -> (acc, seen))
          (acc, seen) (Dag.inputs dag c))
      (0.0, []) members
  in
  let comm_out =
    List.fold_left
      (fun acc i ->
        let dests =
          List.fold_left
            (fun ds c ->
              let v = host c in
              if v = u || List.mem v ds then ds else ds @ [ v ])
            [] (consumers dag i)
        in
        List.fold_left
          (fun acc v -> acc +. ((Dag.node dag i).Dag.output *. stream_rate i v))
          acc dests)
      0.0 members
  in
  { Demand.compute; download; comm_in; comm_out }

let check_demands_bits what dag alloc =
  let demands = (Check.measure (Dag.graph dag) alloc).Check.demands in
  Array.iteri
    (fun u (d : Demand.t) ->
      let e = oracle_proc_demand dag alloc u in
      List.iter
        (fun (field, e, a) ->
          Alcotest.(check int64)
            (Printf.sprintf "%s: P%d %s bits" what u field)
            (Int64.bits_of_float e) (Int64.bits_of_float a))
        [
          ("compute", e.Demand.compute, d.Demand.compute);
          ("download", e.Demand.download, d.Demand.download);
          ("comm_in", e.Demand.comm_in, d.Demand.comm_in);
          ("comm_out", e.Demand.comm_out, d.Demand.comm_out);
        ])
    demands

let test_dag_demand_oracle () =
  let checked = ref 0 in
  for seed = 0 to 11 do
    let apps, platform = MW.instance ~seed ~n_apps:(1 + (seed mod 6)) ~n_operators:30 in
    List.iter
      (fun (mode, dag) ->
        match Dag_place.run dag platform with
        | Error _ -> ()
        | Ok o ->
          incr checked;
          check_demands_bits (Printf.sprintf "seed %d %s" seed mode) dag
            o.Dag_place.alloc)
      [ ("cse", Cse.share_apps apps); ("of_apps", Dag.of_apps apps) ]
  done;
  Alcotest.(check bool) "placements checked" true (!checked > 0)

(* A producer with two consumers at rates 2 and 1 on one remote
   processor and a third, at rate 0.5, on another: one stream per
   destination, at the fastest consumer there (here the first; the
   stream dedup case above has it last).  The first consumer reads the
   producer in both slots, still one stream. *)
let test_dag_demand_mixed_rates () =
  let b = Dag.create_builder ~n_object_types:3 in
  let a = Dag.add_node b ~inputs:[ Dag.Object 0; Dag.Object 1 ] in
  let c1 = Dag.add_node b ~inputs:[ Dag.Node a; Dag.Node a ] in
  let c2 = Dag.add_node b ~inputs:[ Dag.Node a; Dag.Object 2 ] in
  let c3 = Dag.add_node b ~inputs:[ Dag.Node a ] in
  let dag =
    Dag.finish b ~objects:(objects3 ()) ~alpha:1.0
      ~roots:[ (c1, 2.0); (c2, 1.0); (c3, 0.5) ]
      ()
  in
  let alloc =
    Alloc.make
      [|
        { Alloc.config = cfg (); operators = [ a ]; downloads = [ (0, 0); (1, 0) ] };
        { Alloc.config = cfg (); operators = [ c1; c2 ]; downloads = [ (2, 1) ] };
        { Alloc.config = cfg (); operators = [ c3 ]; downloads = [] };
      |]
  in
  check_demands_bits "mixed rates" dag alloc;
  let d = (Check.measure (Dag.graph dag) alloc).Check.demands in
  (* a's output is 30 MB: 30 * 2 to P1, 30 * 0.5 to P2 *)
  Helpers.alco_float "P0 comm_out" 75.0 d.(0).Demand.comm_out;
  Helpers.alco_float "P1 comm_in" 60.0 d.(1).Demand.comm_in;
  Helpers.alco_float "P2 comm_in" 15.0 d.(2).Demand.comm_in;
  Helpers.alco_float "P0 compute at a's rate" 60.0 d.(0).Demand.compute

(* Dag_check.check's constraint (5) sweep against the all-pairs oracle:
   the same Proc_link_overload list, in the same order, with bit-equal
   loads, after every other violation.  Run on Dag_place outputs under
   the real link and under shrunken ones, so that (5) really fires. *)
let test_dag_check_proc_link_oracle () =
  let fired = ref 0 in
  let agree what dag platform alloc =
    let vs = Dag_check.check dag platform alloc in
    let is_link = function Check.Proc_link_overload _ -> true | _ -> false in
    let links, others = List.partition is_link vs in
    Alcotest.(check bool) (what ^ ": (5) reported last") true
      (vs = others @ links);
    let expected = oracle_proc_link dag platform alloc in
    Alcotest.(check int) (what ^ ": (5) count") (List.length expected)
      (List.length links);
    List.iter2
      (fun e a ->
        match (e, a) with
        | ( Check.Proc_link_overload { proc_a; proc_b; load; capacity },
            Check.Proc_link_overload
              { proc_a = a'; proc_b = b'; load = l'; capacity = c' } ) ->
          Alcotest.(check (pair int int)) (what ^ ": pair") (proc_a, proc_b) (a', b');
          Alcotest.(check int64) (what ^ ": load bits")
            (Int64.bits_of_float load) (Int64.bits_of_float l');
          Alcotest.(check int64) (what ^ ": capacity bits")
            (Int64.bits_of_float capacity) (Int64.bits_of_float c')
        | _ -> Alcotest.fail (what ^ ": not a Proc_link_overload"))
      expected links;
    fired := !fired + List.length links
  in
  for seed = 0 to 11 do
    let apps, platform = MW.instance ~seed ~n_apps:(1 + (seed mod 6)) ~n_operators:30 in
    List.iter
      (fun dag ->
        match Dag_place.run dag platform with
        | Error _ -> ()
        | Ok o ->
          let alloc = o.Dag_place.alloc in
          let n = Alloc.n_procs alloc in
          let max_flow = ref 0.0 in
          for u = 0 to n - 1 do
            for v = u + 1 to n - 1 do
              max_flow := Float.max !max_flow (pair_flow dag alloc u v)
            done
          done;
          List.iter
            (fun proc_link ->
              agree
                (Printf.sprintf "seed %d, proc_link %g" seed proc_link)
                dag
                { platform with Insp.Platform.proc_link }
                alloc)
            [ platform.Insp.Platform.proc_link; !max_flow /. 2.0; 0.0 ])
      [ Cse.share_apps apps; Dag.of_apps apps ]
  done;
  Alcotest.(check bool) "constraint (5) fired" true (!fired > 0)

(* ------------------------------------------------------------------ *)
(* Dag_place                                                           *)

let place_outcomes_feasible =
  qtest ~count:40 "DAG placement outcomes pass the DAG checker"
    QCheck.(triple (int_range 0 500) (int_range 1 4) (int_range 5 25))
    (fun (seed, n_apps, n) ->
      let apps, platform = MW.instance ~seed ~n_apps ~n_operators:n in
      List.for_all
        (fun dag ->
          match Dag_place.run dag platform with
          | Ok o -> Dag_check.check dag platform o.Dag_place.alloc = []
          | Error _ -> true)
        [ Dag.of_apps apps; Cse.share_apps apps ])

let sharing_never_costs_more_often =
  qtest ~count:30 "sharing is not systematically worse"
    QCheck.(int_range 0 300)
    (fun seed ->
      let apps, platform = MW.instance ~seed ~n_apps:3 ~n_operators:20 in
      match
        ( Dag_place.run (Dag.of_apps apps) platform,
          Dag_place.run (Cse.share_apps apps) platform )
      with
      | Ok unshared, Ok shared ->
        (* Allow heuristic noise of one chassis. *)
        shared.Dag_place.cost
        <= unshared.Dag_place.cost +. 8000.0
      | _ -> true)

let test_single_app_dag_close_to_tree_sbu () =
  (* On a single application the DAG placer and the tree SBU should give
     costs in the same ballpark (identical model). *)
  let inst = Helpers.instance ~n:25 ~seed:4 () in
  let app = inst.Insp.Instance.app in
  let platform = inst.Insp.Instance.platform in
  let dag = Dag.of_apps [ app ] in
  let tree_cost =
    match
      Insp.Solve.run ~seed:4
        (Option.get (Insp.Solve.find "sbu"))
        app platform
    with
    | Ok o -> o.Insp.Solve.cost
    | Error f -> Alcotest.fail (Insp.Solve.failure_message f)
  in
  match Dag_place.run dag platform with
  | Error f -> Alcotest.fail (Dag_place.failure_message f)
  | Ok o ->
    let ratio = o.Dag_place.cost /. tree_cost in
    Alcotest.(check bool)
      (Printf.sprintf "within 2x (ratio %.2f)" ratio)
      true
      (ratio > 0.5 && ratio < 2.0)

(* Every Dag_place solution on a fixed corpus, one line per (instance,
   sharing mode), against test/dag_solutions.golden: the exact cost
   bits, the processor count and a digest of the allocation rendering,
   or the failure message.  A refactor of the DAG placer must leave the
   committed solutions unchanged. *)
let test_dag_solutions_golden () =
  let buf = Buffer.create (16 * 1024) in
  for seed = 0 to 39 do
    List.iter
      (fun n_apps ->
        List.iter
          (fun n_operators ->
            let apps, platform = MW.instance ~seed ~n_apps ~n_operators in
            List.iter
              (fun (mode, dag) ->
                let rendered =
                  match Dag_place.run dag platform with
                  | Ok o ->
                    Printf.sprintf "ok cost=%h procs=%d alloc=%s"
                      o.Dag_place.cost o.Dag_place.n_procs
                      (Digest.to_hex
                         (Digest.string
                            (Format.asprintf "%a" Alloc.pp o.Dag_place.alloc)))
                  | Error f -> "fail " ^ Dag_place.failure_message f
                in
                Printf.bprintf buf "%d %d %d %s %s\n" seed n_apps n_operators
                  mode rendered)
              [ ("cse", Cse.share_apps apps); ("of_apps", Dag.of_apps apps) ])
          [ 15; 60 ])
      [ 1; 3; 6 ]
  done;
  Helpers.check_golden ~what:"Dag_place.run" "dag_solutions.golden"
    (Buffer.contents buf)

(* All six heuristics through [Solve.run_graph] on shared and unshared
   DAG views: each result is a checker-approved outcome or a typed
   placement / server-selection failure, never a validation failure or
   an exception, and a second run renders the same. *)
let test_six_heuristics_on_dags () =
  let solved = Hashtbl.create 8 in
  for seed = 0 to 11 do
    List.iter
      (fun (n_apps, n_operators) ->
        let apps, platform = MW.instance ~seed ~n_apps ~n_operators in
        List.iter
          (fun (mode, dag) ->
            let g = Dag.graph dag in
            List.iter
              (fun (h : Insp.Solve.heuristic) ->
                let case =
                  Printf.sprintf "seed %d, %d x %d %s, %s" seed n_apps
                    n_operators mode h.Insp.Solve.key
                in
                let render () =
                  match Insp.Solve.run_graph ~seed h g platform with
                  | exception e ->
                    Alcotest.failf "%s raised %s" case (Printexc.to_string e)
                  | Ok o ->
                    (match Check.check_graph g platform o.Insp.Solve.alloc with
                    | [] -> ()
                    | vs -> Alcotest.failf "%s: %s" case (Check.explain vs));
                    Hashtbl.replace solved h.Insp.Solve.key ();
                    Printf.sprintf "ok %h %d %s" o.Insp.Solve.cost o.Insp.Solve.n_procs
                      (Format.asprintf "%a" Alloc.pp o.Insp.Solve.alloc)
                  | Error (Insp.Solve.Validation m) ->
                    Alcotest.failf "%s: validation failed: %s" case m
                  | Error f -> Insp.Solve.failure_message f
                in
                let first = render () in
                Alcotest.(check string) (case ^ ": deterministic") first (render ()))
              Insp.Solve.all)
          [ ("cse", Cse.share_apps apps); ("of_apps", Dag.of_apps apps) ])
      [ (1, 15); (2, 15); (3, 15); (1, 60); (2, 60); (3, 60) ]
  done;
  List.iter
    (fun (h : Insp.Solve.heuristic) ->
      Alcotest.(check bool)
        (h.Insp.Solve.key ^ " solves some DAG")
        true
        (Hashtbl.mem solved h.Insp.Solve.key))
    Insp.Solve.all

(* The one decision the SBU seed step makes differently per rule set.
   Operator 1 downloads o1 and o2 and streams 3000 MB/s to the root,
   more than the widest NIC: it fits on no processor alone, but fits
   with the root, which reads the stream internally.  The tree rules
   fail on it; the DAG rules seed it through the grouping fallback. *)
let test_sbu_seed_rules () =
  let tree =
    Optree.of_spec ~n_object_types:3
      Optree.(Op (Obj 0, Op (Obj 1, Obj 2)))
  in
  let objects = Objects.uniform_freq ~sizes:[| 10.0; 1500.0; 1500.0 |] ~freq:0.01 in
  let app = App.make ~tree ~objects ~alpha:1.0 () in
  let servers =
    Insp.Servers.make ~cards:[| 10000.0 |] ~holds:[| [| true; true; true |] |]
  in
  let platform = Insp.Platform.make ~catalog:Insp.Catalog.dell_2008 ~servers () in
  (match Insp.Solve.run (Option.get (Insp.Solve.find "sbu")) app platform with
  | Error f ->
    Alcotest.(check string) "tree rules fail on the seed"
      "placement failed: no processor can host operators {1}"
      (Insp.Solve.failure_message f)
  | Ok _ -> Alcotest.fail "tree rules must not seed operator 1 alone");
  match Dag_place.run (Dag.of_apps [ app ]) platform with
  | Error f -> Alcotest.fail (Dag_place.failure_message f)
  | Ok o -> Alcotest.(check int) "DAG rules group it with the root" 1 o.Dag_place.n_procs

(* A set whose leftover loop cycles: from step 12 on, the same four
   operators are released and placed again with the same states, ids
   renumbered.  The loop must fail as the round budget would, long
   before spending it: fewer probes than the budget's n² rounds, where
   every round probes at least once. *)
let test_place_cycle_exits () =
  let apps, platform =
    Insp.Multi_workload.instance ~seed:18037 ~n_apps:6 ~n_operators:60
  in
  let dag = Insp.Cse.share_apps apps in
  let n = Insp.Graph.n_nodes (Dag.graph dag) in
  let outcome, recorder =
    Insp.Obs.with_sink (fun () -> Dag_place.run dag platform)
  in
  (match outcome with
  | Ok _ -> Alcotest.fail "the cycling set must not place"
  | Error f ->
    Alcotest.(check string) "the budget's failure"
      "placement failed: placement did not converge"
      (Dag_place.failure_message f));
  let probes =
    Option.value ~default:0
      (Insp.Obs_metrics.counter recorder.Insp.Obs.metrics "heur.probe")
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d probes, fewer than n^2 = %d" probes (n * n))
    true
    (probes < n * n)

(* ------------------------------------------------------------------ *)
(* DAG execution (Dag.simulate)                                        *)

let test_dag_runtime_rejects_mixed_rates () =
  let b = Dag.create_builder ~n_object_types:3 in
  let a = Dag.add_node b ~inputs:[ Dag.Object 0; Dag.Object 1 ] in
  let c = Dag.add_node b ~inputs:[ Dag.Node a; Dag.Object 2 ] in
  let dag =
    Dag.finish b ~objects:(objects3 ()) ~alpha:1.0
      ~roots:[ (c, 1.0); (a, 2.0) ]
      ()
  in
  let platform = Helpers.tiny_platform () in
  match Insp.Dag_place.run dag platform with
  | Error f -> Alcotest.fail (Insp.Dag_place.failure_message f)
  | Ok o ->
    Alcotest.check_raises "mixed rates rejected"
      (Invalid_argument "Dag.simulate: mixed node rates are not supported")
      (fun () -> ignore (Dag.simulate dag platform o.Insp.Dag_place.alloc))

let dag_mappings_sustain_in_execution =
  qtest ~count:12 "feasible DAG mappings sustain every application's rho"
    QCheck.(pair (int_range 0 200) (int_range 1 3))
    (fun (seed, n_apps) ->
      let apps, platform = MW.instance ~seed ~n_apps ~n_operators:15 in
      let dag = Cse.share_apps apps in
      match Insp.Dag_place.run dag platform with
      | Error _ -> true
      | Ok o ->
        let r =
          Dag.simulate ~horizon:240.0 dag platform o.Insp.Dag_place.alloc
        in
        Insp.Runtime.sustains_target r
        && r.Insp.Runtime.results_completed > 0
        && r.Insp.Runtime.download_delivered
           >= 0.9 *. r.Insp.Runtime.download_ideal)

(* Capacity disruptions reach DAG runs too.  While a data server is
   down its refresh downloads stall; once it comes back, the backlog of
   stalled downloads competes with result streams on the processor
   cards, and the applications fall behind the undisrupted run. *)
let test_dag_server_outage_lowers_throughput () =
  let apps, platform = MW.instance ~seed:2 ~n_apps:2 ~n_operators:15 in
  let dag = Cse.share_apps apps in
  match Dag_place.run dag platform with
  | Error f -> Alcotest.fail (Dag_place.failure_message f)
  | Ok o ->
    let alloc = o.Dag_place.alloc in
    let _, _, server = List.hd (Alloc.all_downloads alloc) in
    let run disruptions =
      (Dag.simulate ~horizon:60.0 ~disruptions dag platform alloc)
        .Insp.Runtime.achieved_throughput
    in
    let outage =
      {
        Insp.Runtime.d_scope = Insp.Runtime.Server_card server;
        d_from = 20.0;
        d_until = 40.0;
        d_factor = 0.0;
      }
    in
    let base = run [] and disrupted = run [ outage ] in
    Alcotest.(check bool)
      (Printf.sprintf "outage lowers throughput (%g < %g)" disrupted base)
      true (disrupted < base)

(* DAG DES reports on a fixed corpus, one [Helpers.des_report_line]
   per run, against test/dag_des_reports.golden.  Correlated sets
   (seeds 1-8, 1-3 apps of 15 operators) are placed with and without
   CSE sharing and run at a 60 s horizon. *)
let test_dag_des_reports_golden () =
  let buf = Buffer.create (16 * 1024) in
  for seed = 1 to 8 do
    List.iter
      (fun n_apps ->
        let apps, platform = MW.instance ~seed ~n_apps ~n_operators:15 in
        List.iter
          (fun (mode, dag) ->
            let label = Printf.sprintf "%d %d 15 %s" seed n_apps mode in
            match Dag_place.run dag platform with
            | Error f ->
              Printf.bprintf buf "%s fail %s\n" label
                (Dag_place.failure_message f)
            | Ok o ->
              Helpers.des_report_line buf label
                (Dag.simulate ~horizon:60.0 dag platform o.Dag_place.alloc))
          [ ("cse", Cse.share_apps apps); ("of_apps", Dag.of_apps apps) ])
      [ 1; 2; 3 ]
  done;
  Helpers.check_golden ~what:"DAG DES" "dag_des_reports.golden"
    (Buffer.contents buf)

(* ------------------------------------------------------------------ *)
(* Workload                                                            *)

let correlated_trees_valid =
  qtest ~count:60 "correlated trees are valid and sized"
    QCheck.(triple (int_range 0 1000) (int_range 1 5) (int_range 4 40))
    (fun (seed, n_apps, n) ->
      (* [Optree.of_spec] re-validates every generated tree *)
      let apps, _ = MW.instance ~seed ~n_apps ~n_operators:n in
      List.length apps = n_apps
      && List.for_all (fun a -> App.n_operators a = n) apps)

let test_correlated_share_more_than_independent () =
  (* The generator's shared sub-expression pool must make the
     hash-consed DAG smaller than the same applications unshared. *)
  let apps, _ = MW.instance ~seed:7 ~n_apps:3 ~n_operators:21 in
  let shared = Dag.n_nodes (Cse.share_apps apps)
  and independent = Dag.n_nodes (Dag.of_apps apps) in
  Alcotest.(check bool)
    (Printf.sprintf "more sharing -> smaller DAG (%d < %d)" shared independent)
    true (shared < independent)

let () =
  Alcotest.run "multi"
    [
      ( "dag",
        [
          Alcotest.test_case "builder basic" `Quick test_builder_basic;
          Alcotest.test_case "builder validation" `Quick
            test_builder_validation;
          Alcotest.test_case "of_apps" `Quick test_of_apps;
          layout_dags;
        ] );
      ( "cse",
        [
          Alcotest.test_case "identical apps collapse" `Quick
            test_cse_identical_apps_collapse;
          Alcotest.test_case "commutative" `Quick test_cse_commutative;
          Alcotest.test_case "distinct stay distinct" `Quick
            test_cse_distinct_stay_distinct;
          cse_never_grows;
          cse_preserves_roots;
        ] );
      ( "dag_check",
        [
          Alcotest.test_case "feasible two-proc" `Quick test_dag_check_feasible;
          Alcotest.test_case "stream dedup" `Quick test_dag_check_stream_dedup;
          Alcotest.test_case "rate-weighted compute" `Quick
            test_dag_check_rate_weighted_compute;
          Alcotest.test_case "unknown object type" `Quick
            test_dag_check_unknown_object_type;
          Alcotest.test_case "demands match the from-scratch oracle" `Quick
            test_dag_demand_oracle;
          Alcotest.test_case "mixed-rate streams" `Quick
            test_dag_demand_mixed_rates;
          Alcotest.test_case "(5) matches the all-pairs oracle" `Quick
            test_dag_check_proc_link_oracle;
        ] );
      ( "dag_place",
        [
          Alcotest.test_case "single app vs tree SBU" `Quick
            test_single_app_dag_close_to_tree_sbu;
          place_outcomes_feasible;
          sharing_never_costs_more_often;
          Alcotest.test_case "solutions golden" `Slow
            test_dag_solutions_golden;
          Alcotest.test_case "six heuristics on shared DAGs" `Slow
            test_six_heuristics_on_dags;
          Alcotest.test_case "SBU seed rules" `Quick test_sbu_seed_rules;
          Alcotest.test_case "cycling leftover loop exits" `Quick
            test_place_cycle_exits;
        ] );
      ( "dag_runtime",
        [
          Alcotest.test_case "mixed rates rejected" `Quick
            test_dag_runtime_rejects_mixed_rates;
          dag_mappings_sustain_in_execution;
          Alcotest.test_case "server outage lowers throughput" `Quick
            test_dag_server_outage_lowers_throughput;
          Alcotest.test_case "reports golden" `Slow test_dag_des_reports_golden;
        ] );
      ( "workload",
        [
          Alcotest.test_case "share prob effect" `Quick
            test_correlated_share_more_than_independent;
          correlated_trees_valid;
        ] );
    ]
