(* Tests for the application model: object catalog, operator trees,
   generators, cost propagation, metrics and DOT export. *)

module Objects = Insp.Objects
module Optree = Insp.Optree
module App = Insp.App
module Generate = Insp.Generate
module Prng = Insp.Prng

let qtest = Helpers.qtest

(* ------------------------------------------------------------------ *)
(* Objects                                                             *)

let test_objects_basic () =
  let o = Objects.uniform_freq ~sizes:[| 10.0; 20.0 |] ~freq:0.5 in
  Alcotest.(check int) "count" 2 (Objects.count o);
  Helpers.alco_float "size" 20.0 (Objects.size o 1);
  Helpers.alco_float "rate = size*freq" 5.0 (Objects.rate o 0);
  Helpers.alco_float "second rate" 10.0 (Objects.rate o 1);
  let o' = Objects.with_freq o 0.1 in
  Helpers.alco_float "with_freq keeps size" 10.0 (Objects.size o' 0);
  Helpers.alco_float "with_freq rate" 1.0 (Objects.rate o' 0)

let test_objects_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Objects.make: empty catalog")
    (fun () -> ignore (Objects.uniform_freq ~sizes:[||] ~freq:1.0));
  Alcotest.check_raises "bad size"
    (Invalid_argument "Objects.make: non-positive size") (fun () ->
      ignore (Objects.uniform_freq ~sizes:[| 0.0 |] ~freq:1.0))

(* ------------------------------------------------------------------ *)
(* Optree structure                                                    *)

let fig1a_tree () =
  (* The paper's Figure 1(a) shape; our ids are preorder, so they differ
     from the paper's labels. *)
  let open Optree in
  of_spec ~n_object_types:3
    (Op (Op (Op1 (Obj 0), Op (Obj 0, Obj 1)), Op (Obj 1, Obj 2)))

let test_preorder_ids () =
  let t = fig1a_tree () in
  Alcotest.(check int) "n_operators" 5 (Optree.n_operators t);
  Alcotest.(check int) "root" 0 (Optree.root t);
  Alcotest.(check (list int)) "preorder" [ 0; 1; 2; 3; 4 ] (Optree.preorder t);
  Alcotest.(check (list int)) "postorder" [ 2; 3; 1; 4; 0 ]
    (Optree.postorder t);
  Alcotest.(check (list int)) "root children" [ 1; 4 ] (Helpers.children t 0);
  Alcotest.(check (option int)) "parent of 3" (Some 1) (Optree.parent t 3);
  Alcotest.(check (option int)) "root has no parent" None (Optree.parent t 0)

let test_leaves_and_al () =
  let t = fig1a_tree () in
  Alcotest.(check (list int)) "n2 leaves" [ 0 ] (Optree.leaves t 2);
  Alcotest.(check (list int)) "n3 leaves" [ 0; 1 ] (Optree.leaves t 3);
  Alcotest.(check (list int)) "root leaves" [] (Optree.leaves t 0);
  Alcotest.(check (list int)) "al operators" [ 2; 3; 4 ] (Optree.al_operators t)

let rec depth t i =
  match Optree.parent t i with None -> 0 | Some p -> 1 + depth t p

let test_depth_height_subtree () =
  let t = fig1a_tree () in
  Alcotest.(check int) "depth root" 0 (depth t 0);
  Alcotest.(check int) "depth n2" 2 (depth t 2);
  Alcotest.(check int) "height" 2 (Optree.height t);
  (* preorder ids: a subtree is a contiguous id range *)
  Alcotest.(check (list int)) "children of 1" [ 2; 3 ] (Helpers.children t 1);
  Alcotest.(check (list int)) "leaf op has no children" []
    (Helpers.children t 4)

let test_popularity () =
  let t = fig1a_tree () in
  (* o0 used by n2 and n3; o1 by n3 and n4; o2 by n4. *)
  Alcotest.(check (array int)) "popularity" [| 2; 2; 1 |]
    (Optree.object_popularity t)

let test_leaf_instances () =
  let t = fig1a_tree () in
  Alcotest.(check (list (pair int int))) "instances"
    [ (2, 0); (3, 0); (3, 1); (4, 1); (4, 2) ]
    (List.sort compare (Optree.leaf_instances t))

let test_of_spec_validation () =
  Alcotest.check_raises "bare object root"
    (Invalid_argument "Optree.of_spec: root must be an operator") (fun () ->
      ignore (Optree.of_spec ~n_object_types:1 (Optree.Obj 0)));
  Alcotest.check_raises "object out of range"
    (Invalid_argument "Optree.of_spec: object type out of range") (fun () ->
      ignore (Optree.of_spec ~n_object_types:1 (Optree.Op1 (Optree.Obj 3))))

(* The structural invariants, through the public accessors: preorder
   ids, parent/child symmetry, two inputs per binary operator at most. *)
let structurally_valid t =
  let n = Optree.n_operators t in
  Optree.preorder t = List.init n Fun.id
  && Optree.parent t (Optree.root t) = None
  && List.for_all
       (fun i ->
         List.for_all (fun c -> c > i && Optree.parent t c = Some i)
           (Helpers.children t i)
         && List.length (Helpers.children t i) + List.length (Optree.leaves t i)
            <= 2)
       (Optree.preorder t)

let test_validate_ok () =
  Alcotest.(check bool) "fig. 1(a) valid" true (structurally_valid (fig1a_tree ()))

let test_left_deep () =
  let t = Optree.left_deep ~n_operators:4 ~objects:[| 0; 1; 2; 3; 4 |] in
  Alcotest.(check int) "ops" 4 (Optree.n_operators t);
  (* Every operator is an al-operator in a left-deep tree. *)
  Alcotest.(check (list int)) "all al" [ 0; 1; 2; 3 ] (Optree.al_operators t);
  Alcotest.(check int) "height = chain" 3 (Optree.height t);
  Alcotest.(check (list int)) "root leaf is objects[0]" [ 0 ]
    (Optree.leaves t 0);
  Alcotest.(check (list int)) "deepest has two leaves" [ 3; 4 ]
    (Optree.leaves t 3)

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)

let gen_params = QCheck.(pair (int_range 0 5000) (int_range 1 80))

let gen_shape_valid =
  qtest "random_shape structurally valid" gen_params (fun (seed, n) ->
      let t =
        Generate.random_shape (Prng.create seed) ~n_operators:n
          ~n_object_types:15
      in
      structurally_valid t)

let gen_shape_counts =
  qtest "random_shape has N ops and N+1 leaf instances" gen_params
    (fun (seed, n) ->
      let t =
        Generate.random_shape (Prng.create seed) ~n_operators:n
          ~n_object_types:15
      in
      Optree.n_operators t = n
      && List.length (Optree.leaf_instances t) = n + 1)

let gen_shape_binary =
  qtest "random_shape operators have exactly two inputs" gen_params
    (fun (seed, n) ->
      let t =
        Generate.random_shape (Prng.create seed) ~n_operators:n
          ~n_object_types:15
      in
      List.for_all
        (fun i ->
          List.length (Helpers.children t i) + List.length (Optree.leaves t i)
          = 2)
        (Optree.preorder t))

let gen_balanced_height =
  qtest "balanced_shape has logarithmic height" gen_params (fun (seed, n) ->
      let t =
        Insp.Rewrite.balanced_of
          (Generate.random_shape (Prng.create seed) ~n_operators:n
             ~n_object_types:5)
      in
      let limit =
        2 + int_of_float (Float.ceil (Float.log2 (float_of_int (n + 1))))
      in
      structurally_valid t && Optree.height t <= limit)

let gen_left_deep_valid =
  qtest "random_left_deep valid and all-al" gen_params (fun (seed, n) ->
      let t =
        Insp.Rewrite.left_deep_of
          (Generate.random_shape (Prng.create seed) ~n_operators:n
             ~n_object_types:15)
      in
      structurally_valid t && List.length (Optree.al_operators t) = n)

(* ------------------------------------------------------------------ *)
(* Flat layout                                                         *)

(* The oracle: a spec numbered in preorder by plain recursion into
   per-operator parent, children and leaf lists, independent of the
   tree's row tables. *)
let oracle_lists spec =
  let acc = ref [] and next = ref 0 in
  let rec number parent s =
    let id = !next in
    incr next;
    let inputs =
      match s with Optree.Op1 a -> [ a ] | Op (a, b) -> [ a; b ] | Obj _ -> []
    in
    let children =
      List.filter_map
        (function Optree.Obj _ -> None | s' -> Some (number (Some id) s'))
        inputs
    in
    let leaves = List.filter_map (function Optree.Obj k -> Some k | _ -> None) inputs in
    acc := (id, parent, children, leaves) :: !acc;
    id
  in
  ignore (number None spec);
  let n = !next in
  let parent = Array.make n None and children = Array.make n [] in
  let leaves = Array.make n [] in
  List.iter
    (fun (i, p, cs, ls) ->
      parent.(i) <- p;
      children.(i) <- cs;
      leaves.(i) <- ls)
    !acc;
  (parent, children, leaves)

(* A random spec with [n] operators, two inputs each but a unary
   operator now and then. *)
let random_spec rng n =
  let rec build n =
    if n = 1 && Prng.int rng 4 = 0 then Optree.Op1 (Optree.Obj (Prng.int rng 6))
    else begin
      let left = Prng.int rng n in
      let side m = if m = 0 then Optree.Obj (Prng.int rng 6) else build m in
      let l = side left in
      Optree.Op (l, side (n - 1 - left))
    end
  in
  build n

(* Every flat accessor of the tree and of its graph view equals the
   oracle's lists. *)
let layout_matches t (parent, children, leaves) =
  let n = Array.length parent in
  let objects = Objects.uniform_freq ~sizes:(Array.make 6 1.0) ~freq:1.0 in
  let g = Insp.Graph.of_app (App.make ~tree:t ~objects ~alpha:1.0 ()) in
  let row count get i = List.init (count g i) (get g i) in
  Optree.n_operators t = n
  && Insp.Graph.n_nodes g = n
  && g.Insp.Graph.roots = [| 0 |]
  && g.Insp.Graph.unshared
  && List.for_all
       (fun i ->
         row Insp.Graph.n_producers Insp.Graph.producer i = children.(i)
         && row Insp.Graph.n_consumers Insp.Graph.consumer i
            = Option.to_list parent.(i)
         && Helpers.leaves g i = leaves.(i)
         && Helpers.children t i = children.(i)
         && Optree.leaves t i = leaves.(i)
         && Optree.parent t i = parent.(i))
       (List.init n Fun.id)

let layout_random_trees =
  qtest "flat rows = oracle lists, N 1-200"
    QCheck.(pair (int_range 0 5000) (int_range 1 200))
    (fun (seed, n) ->
      let spec = random_spec (Prng.create seed) n in
      let ((parent, children, leaves) as lists) = oracle_lists spec in
      layout_matches (Optree.of_spec ~n_object_types:6 spec) lists
      && layout_matches
           (Optree.of_arrays ~n_object_types:6 ~parent ~children ~leaves)
           lists)

let layout_generated_trees =
  qtest "generated trees: flat rows = oracle lists" gen_params (fun (seed, n) ->
      let t =
        Generate.random_shape (Prng.create seed) ~n_operators:n
          ~n_object_types:6
      in
      layout_matches t (oracle_lists (Optree.to_spec t)))

let test_layout_fixed_shapes () =
  let single = Optree.Op1 (Optree.Obj 2) in
  Alcotest.(check bool) "single operator" true
    (layout_matches (Optree.of_spec ~n_object_types:6 single)
       (oracle_lists single));
  List.iter
    (fun n ->
      let objects = Array.init (n + 1) (fun i -> i mod 6) in
      let t = Optree.left_deep ~n_operators:n ~objects in
      Alcotest.(check bool)
        (Printf.sprintf "left-deep chain of %d" n)
        true
        (layout_matches t (oracle_lists (Optree.to_spec t))))
    [ 1; 2; 200 ]

let test_of_arrays_rejects () =
  let build ~parent ~children ~leaves () =
    ignore (Optree.of_arrays ~n_object_types:2 ~parent ~children ~leaves)
  in
  let rejects what msg ~parent ~children ~leaves =
    Alcotest.check_raises what (Invalid_argument ("Optree.of_arrays: " ^ msg))
      (build ~parent ~children ~leaves)
  in
  rejects "empty" "empty tree" ~parent:[||] ~children:[||] ~leaves:[||];
  rejects "lengths" "array lengths disagree" ~parent:[| None |] ~children:[||]
    ~leaves:[| [ 0 ] |];
  rejects "arity" "node 0 has arity > 2" ~parent:[| None |] ~children:[| [] |]
    ~leaves:[| [ 0; 1; 0 ] |];
  rejects "object range" "node 0 references an unknown object type"
    ~parent:[| None |] ~children:[| [] |] ~leaves:[| [ 2 ] |];
  rejects "asymmetric" "node 0 has asymmetric child links"
    ~parent:[| None; None |] ~children:[| [ 1 ]; [] |] ~leaves:[| []; [ 0 ] |];
  rejects "root parent" "root has a parent" ~parent:[| Some 1; Some 0 |]
    ~children:[| [ 1 ]; [ 0 ] |] ~leaves:[| []; [] |];
  rejects "unreachable cycle" "tree is not fully reachable from the root"
    ~parent:[| None; Some 2; Some 1 |] ~children:[| []; [ 2 ]; [ 1 ] |]
    ~leaves:[| [ 0 ]; []; [] |];
  rejects "unreachable operator" "tree is not fully reachable from the root"
    ~parent:[| None; None |] ~children:[| []; [] |] ~leaves:[| [ 0 ]; [ 1 ] |];
  rejects "not preorder" "ids are not in preorder"
    ~parent:[| None; Some 2; Some 0 |] ~children:[| [ 2 ]; []; [ 1 ] |]
    ~leaves:[| [ 0 ]; [ 0; 1 ]; [ 1 ] |];
  rejects "child twice" "ids are not in preorder"
    ~parent:[| None; Some 0 |] ~children:[| [ 1; 1 ]; [] |]
    ~leaves:[| []; [ 0 ] |]

(* [Graph.of_app] shares the tree's rows and the app's arrays: the same
   few words at 1k and at 10k operators. *)
let test_of_app_allocation () =
  let app n =
    let config = Insp.Config.make ~n_operators:n ~alpha:0.9 ~seed:1 () in
    (Insp.Instance.generate config).Insp.Instance.app
  in
  (* every word allocated, in the minor heap or straight in the major
     one, where an array too large for the minor heap goes *)
  let allocated f =
    let before = Gc.allocated_bytes () in
    f ();
    (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8)
  in
  let words a =
    allocated (fun () -> ignore (Sys.opaque_identity (Insp.Graph.of_app a)))
    -. allocated ignore
  in
  let a1 = app 1_000 and a10 = app 10_000 in
  ignore (words a1);
  let w1 = words a1 and w10 = words a10 in
  Alcotest.(check (float 0.0)) "1k and 10k allocate alike" w1 w10;
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words, a small constant" w1)
    true (w1 <= 32.0)

let gen_sizes_in_range =
  qtest "random_sizes in range"
    QCheck.(int_range 0 1000)
    (fun seed ->
      let sizes =
        Generate.random_sizes (Prng.create seed) ~n_object_types:15 ~lo:5.0
          ~hi:30.0
      in
      Array.length sizes = 15
      && Array.for_all (fun s -> s >= 5.0 && s < 30.0) sizes)

(* ------------------------------------------------------------------ *)
(* App cost propagation                                                *)

(* Sum over leaf instances of the object sizes: with additive outputs,
   the root's output size. *)
let total_leaf_mass app =
  List.fold_left
    (fun acc (_, k) -> acc +. Insp.Objects.size (App.objects app) k)
    0.0
    (Optree.leaf_instances (App.tree app))

let test_app_tiny_values () =
  let app = Helpers.tiny_app () in
  Helpers.alco_float "w1" 30.0 (App.work app 1);
  Helpers.alco_float "w3" 10.0 (App.work app 3);
  Helpers.alco_float "w2" 50.0 (App.work app 2);
  Helpers.alco_float "w0" 80.0 (App.work app 0);
  Helpers.alco_float "d0" 80.0 (App.output_size app 0);
  Helpers.alco_float "total leaf mass = root output" (total_leaf_mass app)
    (App.output_size app 0);
  Alcotest.(check int) "heaviest is root" 0 (App.heaviest_operator app);
  Helpers.alco_float "download rate o2" 20.0 (App.download_rate app 2)

let test_app_alpha_and_base () =
  let tree =
    Optree.of_spec ~n_object_types:1 (Optree.Op (Optree.Obj 0, Optree.Obj 0))
  in
  let objects = Objects.uniform_freq ~sizes:[| 4.0 |] ~freq:1.0 in
  let app = App.make ~tree ~objects ~alpha:2.0 () in
  Helpers.alco_float "w = (4+4)^2" 64.0 (App.work app 0);
  let app =
    App.make ~base_work:100.0 ~work_factor:0.5 ~tree ~objects ~alpha:2.0 ()
  in
  Helpers.alco_float "w = 100 + 0.5*64" 132.0 (App.work app 0);
  let app = App.make ~rho:3.0 ~tree ~objects ~alpha:1.0 () in
  (* rho = 3 on an 8 MB output: the edge to a parent carries 24 MB/s *)
  Helpers.alco_float "comm_volume scales with rho" 24.0
    (App.rho app *. App.output_size app 0)

let test_app_validation () =
  let tree =
    Optree.of_spec ~n_object_types:2 (Optree.Op (Optree.Obj 0, Optree.Obj 1))
  in
  let objects = Objects.uniform_freq ~sizes:[| 1.0 |] ~freq:1.0 in
  Alcotest.check_raises "catalog too small"
    (Invalid_argument
       "App.make: tree references more object types than catalog") (fun () ->
      ignore (App.make ~tree ~objects ~alpha:1.0 ()))

let app_output_additive =
  qtest "root output = total leaf mass (additive outputs)" gen_params
    (fun (seed, n) ->
      let rng = Prng.create seed in
      let tree = Generate.random_shape rng ~n_operators:n ~n_object_types:15 in
      let sizes =
        Generate.random_sizes rng ~n_object_types:15 ~lo:5.0 ~hi:30.0
      in
      let objects = Objects.uniform_freq ~sizes ~freq:0.5 in
      let app = App.make ~tree ~objects ~alpha:0.9 () in
      Helpers.float_eq ~eps:1e-6 (total_leaf_mass app)
        (App.output_size app 0))

let app_work_monotone_in_alpha =
  qtest "work grows with alpha (inputs > 1 MB)" gen_params (fun (seed, n) ->
      let rng = Prng.create seed in
      let tree = Generate.random_shape rng ~n_operators:n ~n_object_types:15 in
      let sizes =
        Generate.random_sizes rng ~n_object_types:15 ~lo:5.0 ~hi:30.0
      in
      let objects = Objects.uniform_freq ~sizes ~freq:0.5 in
      let lo = App.make ~tree ~objects ~alpha:0.9 () in
      let hi = App.make ~tree ~objects ~alpha:1.4 () in
      List.for_all
        (fun i -> App.work hi i >= App.work lo i)
        (Optree.preorder tree))

(* ------------------------------------------------------------------ *)
(* Metrics and DOT                                                     *)

let test_metrics () =
  let app = Helpers.tiny_app () in
  let m = Insp.Tree_metrics.compute app in
  Alcotest.(check int) "ops" 4 m.Insp.Tree_metrics.n_operators;
  Alcotest.(check int) "al ops" 3 m.Insp.Tree_metrics.n_al_operators;
  Alcotest.(check int) "leaf instances" 4 m.Insp.Tree_metrics.n_leaf_instances;
  Alcotest.(check int) "objects used" 3
    m.Insp.Tree_metrics.distinct_objects_used;
  Helpers.alco_float "total work" 170.0 m.Insp.Tree_metrics.total_work;
  (* downloads: n1 needs o0+o1 (5+10), n3 needs o0 (5), n2 needs o2 (20) *)
  Helpers.alco_float "download demand" 40.0
    m.Insp.Tree_metrics.total_download_rate

let test_dot () =
  let app = Helpers.tiny_app () in
  let dot = Insp.Dot.of_app app in
  let contains sub =
    let n = String.length dot and m = String.length sub in
    let rec go i = i + m <= n && (String.sub dot i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "digraph" true (contains "digraph");
  Alcotest.(check bool) "has n3" true (contains "n3");
  Alcotest.(check bool) "has leaf" true (contains "leaf0");
  Alcotest.(check bool) "edge" true (contains "n1 -> n0")

let () =
  Alcotest.run "tree"
    [
      ( "objects",
        [
          Alcotest.test_case "basic" `Quick test_objects_basic;
          Alcotest.test_case "validation" `Quick test_objects_validation;
        ] );
      ( "optree",
        [
          Alcotest.test_case "preorder ids" `Quick test_preorder_ids;
          Alcotest.test_case "leaves and al-ops" `Quick test_leaves_and_al;
          Alcotest.test_case "depth/height/subtree" `Quick
            test_depth_height_subtree;
          Alcotest.test_case "popularity" `Quick test_popularity;
          Alcotest.test_case "leaf instances" `Quick test_leaf_instances;
          Alcotest.test_case "of_spec validation" `Quick
            test_of_spec_validation;
          Alcotest.test_case "validate ok" `Quick test_validate_ok;
          Alcotest.test_case "left-deep" `Quick test_left_deep;
          Alcotest.test_case "of_arrays rejects" `Quick test_of_arrays_rejects;
        ] );
      ( "layout",
        [
          layout_random_trees;
          layout_generated_trees;
          Alcotest.test_case "fixed shapes" `Quick test_layout_fixed_shapes;
          Alcotest.test_case "of_app allocates O(1)" `Quick test_of_app_allocation;
        ] );
      ( "generate",
        [
          gen_shape_valid;
          gen_shape_counts;
          gen_shape_binary;
          gen_balanced_height;
          gen_left_deep_valid;
          gen_sizes_in_range;
        ] );
      ( "app",
        [
          Alcotest.test_case "tiny values" `Quick test_app_tiny_values;
          Alcotest.test_case "alpha/base/factor/rho" `Quick
            test_app_alpha_and_base;
          Alcotest.test_case "validation" `Quick test_app_validation;
          app_output_additive;
          app_work_monotone_in_alpha;
        ] );
      ( "metrics+dot",
        [
          Alcotest.test_case "metrics" `Quick test_metrics;
          Alcotest.test_case "dot export" `Quick test_dot;
        ] );
    ]
