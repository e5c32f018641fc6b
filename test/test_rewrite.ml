(* Tests for the mutable-application extension: associativity/
   commutativity rewriting of operator trees. *)

module Rewrite = Insp.Rewrite
module Optree = Insp.Optree
module App = Insp.App
module Objects = Insp.Objects
module Generate = Insp.Generate
module Prng = Insp.Prng

let qtest = Helpers.qtest

let chain4 () =
  (* ((o0 . o1) . o2) . o3 — the classic left-deep chain. *)
  Optree.left_deep ~n_operators:3 ~objects:[| 2; 1; 0; 3 |]

(* The rotations one hill-climbing step scores: with one step, no
   restarts and every shape infeasible, [optimize] evaluates the start
   and each of its neighbours, and moves nowhere. *)
let neighbors t =
  let seen = ref [] in
  let evaluate t' =
    if t' != t then seen := t' :: !seen;
    None
  in
  ignore (Rewrite.optimize (Prng.create 0) ~evaluate ~steps:1 ~restarts:0 t);
  List.rev !seen

let test_leaf_multiset () =
  let t = chain4 () in
  Alcotest.(check (list int)) "sorted with duplicates" [ 0; 1; 2; 3 ]
    (Oracles.leaf_multiset t);
  let t2 =
    Optree.of_spec ~n_object_types:2
      Optree.(Op (Op (Obj 1, Obj 1), Obj 0))
  in
  Alcotest.(check (list int)) "duplicates kept" [ 0; 1; 1 ]
    (Oracles.leaf_multiset t2)

let test_neighbors_preserve_leaves () =
  let t = chain4 () in
  let ns = neighbors t in
  Alcotest.(check bool) "has rotations" true (List.length ns >= 2);
  List.iter
    (fun t' ->
      Alcotest.(check (list int)) "leaf multiset preserved"
        (Oracles.leaf_multiset t) (Oracles.leaf_multiset t');
      Alcotest.(check int) "operator count preserved" (Optree.n_operators t)
        (Optree.n_operators t'))
    ns

let neighbors_preserve_multiset =
  qtest ~count:80 "rotations preserve the leaf multiset"
    QCheck.(pair (int_range 0 2000) (int_range 2 15))
    (fun (seed, n) ->
      let t =
        Generate.random_shape (Prng.create seed) ~n_operators:n
          ~n_object_types:6
      in
      List.for_all
        (fun t' ->
          Oracles.leaf_multiset t' = Oracles.leaf_multiset t
          && Optree.n_operators t' = Optree.n_operators t)
        (neighbors t))

let test_balanced_and_left_deep () =
  let t =
    Generate.random_shape (Prng.create 3) ~n_operators:14 ~n_object_types:5
  in
  let b = Rewrite.balanced_of t in
  let l = Rewrite.left_deep_of t in
  Alcotest.(check (list int)) "balanced leaves" (Oracles.leaf_multiset t)
    (Oracles.leaf_multiset b);
  Alcotest.(check (list int)) "left-deep leaves" (Oracles.leaf_multiset t)
    (Oracles.leaf_multiset l);
  Alcotest.(check int) "left-deep height" (Optree.n_operators l - 1)
    (Optree.height l);
  Alcotest.(check bool) "balanced shallower" true
    (Optree.height b < Optree.height l)

let test_enumerate_counts () =
  (* Distinct leaves: #shapes = (2n-3)!! — 3 leaves -> 3, 4 leaves -> 15. *)
  let shapes3 = Oracles.enumerate_shapes ~n_object_types:3 ~leaves:[ 0; 1; 2 ] in
  Alcotest.(check int) "3 distinct leaves" 3 (List.length shapes3);
  let shapes4 = Oracles.enumerate_shapes ~n_object_types:4 ~leaves:[ 0; 1; 2; 3 ] in
  Alcotest.(check int) "4 distinct leaves" 15 (List.length shapes4);
  (* Identical leaves collapse shapes: 3 equal leaves -> 1 shape. *)
  let same3 = Oracles.enumerate_shapes ~n_object_types:1 ~leaves:[ 0; 0; 0 ] in
  Alcotest.(check int) "3 equal leaves" 1 (List.length same3)

let test_enumerate_all_valid () =
  List.iter
    (fun t ->
      Alcotest.(check int) "operators" 3 (Optree.n_operators t);
      Alcotest.(check (list int)) "leaves" [ 0; 1; 1; 2 ]
        (Oracles.leaf_multiset t))
    (Oracles.enumerate_shapes ~n_object_types:3 ~leaves:[ 0; 1; 1; 2 ])

(* The work model is shape-sensitive: balanced minimises total work
   among shapes for alpha > 1 (convexity), left-deep maximises it. *)
let total_work tree alpha =
  let n_object_types = Optree.n_object_types tree in
  let objects =
    Objects.uniform_freq ~sizes:(Array.make n_object_types 10.0) ~freq:0.5
  in
  App.total_work (App.make ~tree ~objects ~alpha ())

let balanced_minimises_work =
  qtest ~count:50 "balanced <= random <= left-deep total work (alpha > 1)"
    QCheck.(pair (int_range 0 1000) (int_range 3 12))
    (fun (seed, n) ->
      let t =
        Generate.random_shape (Prng.create seed) ~n_operators:n
          ~n_object_types:4
      in
      let w_b = total_work (Rewrite.balanced_of t) 1.5 in
      let w_t = total_work t 1.5 in
      let w_l = total_work (Rewrite.left_deep_of t) 1.5 in
      w_b <= w_t +. 1e-6 && w_t <= w_l +. 1e-6)

let test_optimize_improves () =
  (* Hill climbing from a left-deep chain must not end worse, and the
     returned tree must stay equivalent. *)
  let t = Rewrite.left_deep_of
      (Generate.random_shape (Prng.create 9) ~n_operators:10 ~n_object_types:5)
  in
  let evaluate tree = Some (total_work tree 1.5) in
  let best, cost = Rewrite.optimize (Prng.create 1) ~evaluate t in
  Alcotest.(check (list int)) "equivalent computation"
    (Oracles.leaf_multiset t) (Oracles.leaf_multiset best);
  match (cost, evaluate t) with
  | Some c, Some c0 -> Alcotest.(check bool) "improved or equal" true (c <= c0)
  | _ -> Alcotest.fail "evaluation failed"

let test_optimize_matches_enumeration_on_small () =
  (* With exhaustive enumeration as ground truth on 5 leaves. *)
  let t =
    Generate.random_shape (Prng.create 5) ~n_operators:4 ~n_object_types:5
  in
  let evaluate tree = Some (total_work tree 1.6) in
  let exhaustive =
    Oracles.enumerate_shapes ~n_object_types:5 ~leaves:(Oracles.leaf_multiset t)
    |> List.filter_map evaluate
    |> List.fold_left Float.min infinity
  in
  let _, cost = Rewrite.optimize (Prng.create 2) ~restarts:4 ~evaluate t in
  match cost with
  | None -> Alcotest.fail "no cost"
  | Some c ->
    Alcotest.(check bool)
      (Printf.sprintf "within 5%% of exhaustive optimum (%.1f vs %.1f)" c
         exhaustive)
      true
      (c <= exhaustive *. 1.05 +. 1e-6)

let optimize_never_worse =
  qtest ~count:30 "hill climbing never ends above its start"
    QCheck.(pair (int_range 0 500) (int_range 3 10))
    (fun (seed, n) ->
      let t =
        Generate.random_shape (Prng.create seed) ~n_operators:n
          ~n_object_types:4
      in
      let evaluate tree = Some (total_work tree 1.4) in
      let _, cost = Rewrite.optimize (Prng.create seed) ~evaluate t in
      match (cost, evaluate t) with
      | Some c, Some c0 -> c <= c0 +. 1e-6
      | _ -> false)

let () =
  Alcotest.run "rewrite"
    [
      ( "structure",
        [
          Alcotest.test_case "leaf multiset" `Quick test_leaf_multiset;
          Alcotest.test_case "neighbors preserve leaves" `Quick
            test_neighbors_preserve_leaves;
          Alcotest.test_case "balanced / left-deep" `Quick
            test_balanced_and_left_deep;
          neighbors_preserve_multiset;
        ] );
      ( "enumerate",
        [
          Alcotest.test_case "shape counts" `Quick test_enumerate_counts;
          Alcotest.test_case "all valid" `Quick test_enumerate_all_valid;
        ] );
      ( "optimize",
        [
          Alcotest.test_case "improves left-deep" `Quick test_optimize_improves;
          Alcotest.test_case "matches enumeration" `Quick
            test_optimize_matches_enumeration_on_small;
          balanced_minimises_work;
          optimize_never_worse;
        ] );
    ]
