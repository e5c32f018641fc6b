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
  consumers : int list array;
  graph : Graph.t;
}

let n_nodes t = Array.length t.nodes
let node t i = t.nodes.(i)
let inputs t i = t.nodes.(i).inputs
let graph t = t.graph
let topological t = List.init (n_nodes t) Fun.id

let compute_consumers nodes =
  let consumers = Array.make (Array.length nodes) [] in
  Array.iter
    (fun n ->
      List.iter
        (function
          | Node j -> consumers.(j) <- n.id :: consumers.(j)
          | Object _ -> ())
        n.inputs)
    nodes;
  Array.map (List.sort_uniq compare) consumers

(* The operator-graph view, built once with the DAG: node inputs split
   into producers (slot order) and leaves, consumers ascending. *)
let view nodes ~objects ~roots ~consumers =
  let producers n =
    List.filter_map (function Node j -> Some j | Object _ -> None) n.inputs
  in
  let leaves n =
    List.filter_map (function Object k -> Some k | Node _ -> None) n.inputs
  in
  Graph.make
    ~rates:(Array.map (fun n -> n.rate) nodes)
    ~work:(Array.map (fun n -> n.work) nodes)
    ~output:(Array.map (fun n -> n.output) nodes)
    ~producers:(Array.map producers nodes)
    ~consumers:(Array.map Array.of_list consumers)
    ~leaves:(Array.map leaves nodes)
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
          List.map (fun j -> t.nodes.(j).rate) t.consumers.(i)
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
  let consumers = compute_consumers nodes in
  let t =
    {
      nodes;
      objects;
      n_object_types = b.b_n_object_types;
      roots;
      consumers;
      graph = view nodes ~objects ~roots ~consumers;
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
        let mapping = Hashtbl.create 32 in
        List.iter
          (fun op ->
            let id = !next in
            incr next;
            Hashtbl.replace mapping op id;
            let inputs =
              List.map (fun k -> Object k) (Optree.leaves tree op)
              @ List.map
                  (fun c -> Node (Hashtbl.find mapping c))
                  (Optree.children tree op)
            in
            nodes.(id) <-
              Some
                {
                  id;
                  inputs;
                  rate = App.rho app;
                  work = App.work app op;
                  output = App.output_size app op;
                })
          (Optree.postorder tree);
        roots :=
          (Hashtbl.find mapping (Optree.root tree), App.rho app) :: !roots)
      apps;
    let nodes =
      Array.map
        (function
          | Some n -> n
          | None -> assert false (* every id is filled by the postorder pass *))
        nodes
    in
    let objects = App.objects first and roots = List.rev !roots in
    let consumers = compute_consumers nodes in
    {
      nodes;
      objects;
      n_object_types;
      roots;
      consumers;
      graph = view nodes ~objects ~roots ~consumers;
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
