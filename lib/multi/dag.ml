module App = Insp_tree.App
module Optree = Insp_tree.Optree
module Objects = Insp_tree.Objects
module Graph = Insp_tree.Graph

type input = Object of int | Node of int

type node = {
  id : int;
  inputs : input list;
  rate : float;
  work : float;
  output : float;
}

type t = {
  nodes : node array;
  objects : Objects.t;
  n_object_types : int;
  roots : (int * float) list;
  graph : Graph.t;
}

let n_nodes t = Array.length t.nodes
let node t i = t.nodes.(i)
let inputs t i = t.nodes.(i).inputs
let graph t = t.graph
let topological t = List.init (n_nodes t) Fun.id

(* Whether [j] is among the first [k] inputs: a node reading one
   producer in two slots is one consumer of it. *)
let rec reads_before j k = function
  | Node j' :: rest -> k > 0 && (j' = j || reads_before j (k - 1) rest)
  | Object _ :: rest -> k > 0 && reads_before j (k - 1) rest
  | [] -> false

(* The operator-graph view, built once with the DAG: node inputs split
   into producer rows (slot order) and leaf rows, then consumer rows,
   ascending because the nodes are visited in id order.  A counting
   pass sizes the rows; a second one fills them. *)
let view nodes ~objects ~roots =
  let n = Array.length nodes in
  let prod_start = Array.make (n + 1) 0 and leaf_start = Array.make (n + 1) 0 in
  let cons_start = Array.make (n + 1) 0 in
  let rec count i ins k = function
    | [] -> ()
    | Object _ :: rest ->
      leaf_start.(i + 1) <- leaf_start.(i + 1) + 1;
      count i ins (k + 1) rest
    | Node j :: rest ->
      prod_start.(i + 1) <- prod_start.(i + 1) + 1;
      if not (reads_before j k ins) then cons_start.(j + 1) <- cons_start.(j + 1) + 1;
      count i ins (k + 1) rest
  in
  Array.iteri (fun i nd -> count i nd.inputs 0 nd.inputs) nodes;
  for i = 0 to n - 1 do
    prod_start.(i + 1) <- prod_start.(i + 1) + prod_start.(i);
    leaf_start.(i + 1) <- leaf_start.(i + 1) + leaf_start.(i);
    cons_start.(i + 1) <- cons_start.(i + 1) + cons_start.(i)
  done;
  let prod = Array.make prod_start.(n) 0 and leaf = Array.make leaf_start.(n) 0 in
  let cons = Array.make cons_start.(n) 0 and next = Array.sub cons_start 0 n in
  let rec fill i ins px lx k = function
    | [] -> ()
    | Object o :: rest ->
      leaf.(lx) <- o;
      fill i ins px (lx + 1) (k + 1) rest
    | Node j :: rest ->
      prod.(px) <- j;
      if not (reads_before j k ins) then begin
        cons.(next.(j)) <- i;
        next.(j) <- next.(j) + 1
      end;
      fill i ins (px + 1) lx (k + 1) rest
  in
  Array.iteri
    (fun i nd -> fill i nd.inputs prod_start.(i) leaf_start.(i) 0 nd.inputs)
    nodes;
  Graph.make
    ~rates:(Array.map (fun n -> n.rate) nodes)
    ~work:(Array.map (fun n -> n.work) nodes)
    ~output:(Array.map (fun n -> n.output) nodes)
    ~prod_start ~prod ~cons_start ~cons ~leaf_start ~leaf
    ~roots:(Array.of_list (List.map fst roots))
    ~objects

let validate t =
  let fail fmt = Format.kasprintf (fun s -> Error s) fmt in
  let n = n_nodes t in
  let rec check i =
    if i >= n then Ok ()
    else begin
      let nd = t.nodes.(i) in
      let arity = List.length nd.inputs in
      if nd.id <> i then fail "node %d stores id %d" i nd.id
      else if arity < 1 || arity > 2 then fail "node %d has arity %d" i arity
      else if
        List.exists
          (function
            | Node j -> j < 0 || j >= i (* topological: inputs precede *)
            | Object k -> k < 0 || k >= t.n_object_types)
          nd.inputs
      then fail "node %d has an invalid or non-topological input" i
      else begin
        let consumer_rates =
          List.init (Graph.n_consumers t.graph i) (fun k ->
              t.nodes.(Graph.consumer t.graph i k).rate)
        in
        let sink_rates =
          List.filter_map
            (fun (r, rho) -> if r = i then Some rho else None)
            t.roots
        in
        match consumer_rates @ sink_rates with
        | [] -> fail "node %d feeds nothing" i
        | rates ->
          let expected = List.fold_left Float.max 0.0 rates in
          if Float.abs (nd.rate -. expected) > 1e-9 then
            fail "node %d rate %.3f, expected %.3f" i nd.rate expected
          else check (i + 1)
      end
    end
  in
  if t.roots = [] then Error "no applications"
  else if
    List.exists (fun (r, rho) -> r < 0 || r >= n || rho <= 0.0) t.roots
  then Error "invalid root"
  else check 0

(* ------------------------------------------------------------------ *)
(* Builder                                                             *)

type builder = {
  b_n_object_types : int;
  mutable rev_inputs : input list list;  (* newest first *)
  mutable count : int;
}

let create_builder ~n_object_types =
  if n_object_types < 1 then
    invalid_arg "Dag.create_builder: need at least one object type";
  { b_n_object_types = n_object_types; rev_inputs = []; count = 0 }

let add_node b ~inputs =
  let arity = List.length inputs in
  if arity < 1 || arity > 2 then invalid_arg "Dag.add_node: arity must be 1-2";
  List.iter
    (function
      | Node j ->
        if j < 0 || j >= b.count then invalid_arg "Dag.add_node: dangling node"
      | Object k ->
        if k < 0 || k >= b.b_n_object_types then
          invalid_arg "Dag.add_node: unknown object type")
    inputs;
  let id = b.count in
  b.rev_inputs <- inputs :: b.rev_inputs;
  b.count <- b.count + 1;
  id

let finish b ~objects ~alpha ?(base_work = 0.0) ?(work_factor = 1.0) ~roots () =
  if roots = [] then invalid_arg "Dag.finish: no applications";
  List.iter
    (fun (r, rho) ->
      if r < 0 || r >= b.count then invalid_arg "Dag.finish: dangling root";
      if rho <= 0.0 then invalid_arg "Dag.finish: non-positive rho")
    roots;
  let all_inputs = Array.of_list (List.rev b.rev_inputs) in
  let n = b.count in
  let output = Array.make n 0.0 in
  let work = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let mass =
      List.fold_left
        (fun acc -> function
          | Object k -> acc +. Objects.size objects k
          | Node j -> acc +. output.(j))
        0.0 all_inputs.(i)
    in
    output.(i) <- mass;
    work.(i) <- base_work +. (work_factor *. (mass ** alpha))
  done;
  (* Rates flow downward: process in reverse topological order. *)
  let rate = Array.make n 0.0 in
  List.iter (fun (r, rho) -> rate.(r) <- Float.max rate.(r) rho) roots;
  for i = n - 1 downto 0 do
    List.iter
      (function
        | Node j -> rate.(j) <- Float.max rate.(j) rate.(i)
        | Object _ -> ())
      all_inputs.(i)
  done;
  let nodes =
    Array.init n (fun i ->
        {
          id = i;
          inputs = all_inputs.(i);
          rate = rate.(i);
          work = work.(i);
          output = output.(i);
        })
  in
  let t =
    {
      nodes;
      objects;
      n_object_types = b.b_n_object_types;
      roots;
      graph = view nodes ~objects ~roots;
    }
  in
  (match validate t with
  | Ok () -> ()
  | Error e -> invalid_arg ("Dag.finish: " ^ e));
  t

let of_apps apps =
  match apps with
  | [] -> invalid_arg "Dag.of_apps: no applications"
  | first :: _ ->
    let n_object_types = Objects.count (App.objects first) in
    let total = List.fold_left (fun acc a -> acc + App.n_operators a) 0 apps in
    let nodes = Array.make total None in
    let next = ref 0 in
    let roots = ref [] in
    List.iter
      (fun app ->
        let tree = App.tree app in
        let { Optree.child_start; child; leaf_start; leaf; _ } = tree in
        let mapping = Array.make (Optree.n_operators tree) (-1) in
        List.iter
          (fun op ->
            let id = !next in
            incr next;
            mapping.(op) <- id;
            (* leaves, then children, each in slot order *)
            let inputs = ref [] in
            for x = child_start.(op + 1) - 1 downto child_start.(op) do
              inputs := Node mapping.(child.(x)) :: !inputs
            done;
            for x = leaf_start.(op + 1) - 1 downto leaf_start.(op) do
              inputs := Object leaf.(x) :: !inputs
            done;
            nodes.(id) <-
              Some
                {
                  id;
                  inputs = !inputs;
                  rate = App.rho app;
                  work = App.work app op;
                  output = App.output_size app op;
                })
          (Optree.postorder tree);
        roots := (mapping.(Optree.root tree), App.rho app) :: !roots)
      apps;
    let nodes =
      Array.map
        (function
          | Some n -> n
          | None -> assert false (* every id is filled by the postorder pass *))
        nodes
    in
    let objects = App.objects first and roots = List.rev !roots in
    {
      nodes;
      objects;
      n_object_types;
      roots;
      graph = view nodes ~objects ~roots;
    }

let simulate ?horizon ?warmup ?disruptions t platform alloc =
  let rho = t.nodes.(0).rate in
  Array.iter
    (fun n ->
      if Float.abs (n.rate -. rho) > 1e-9 then
        invalid_arg "Dag.simulate: mixed node rates are not supported")
    t.nodes;
  Insp_sim.Runtime.run_graph ?horizon ?warmup ?disruptions t.graph platform
    alloc
