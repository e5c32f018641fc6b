module Optree = Insp_tree.Optree
module Prng = Insp_util.Prng

let leaf_multiset tree =
  Optree.leaf_instances tree |> List.map snd |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Rotations over specs                                                *)

(* All single-rotation rewrites of a spec.  At a binary node (x . y):
   - if x = (a . b):  (a . b) . y -> a . (b . y)  and  b . (a . y)
   - if y = (a . b):  x . (a . b) -> (x . a) . b  and  (x . b) . a
   (the two variants per side cover commutativity of the rotated pair,
   which matters because shapes are what we search over). *)
let rec spec_rotations (spec : Optree.spec) : Optree.spec list =
  match spec with
  | Optree.Obj _ -> []
  | Optree.Op1 a ->
    List.map (fun a' -> Optree.Op1 a') (spec_rotations a)
  | Optree.Op (x, y) ->
    let here =
      (match x with
      | Optree.Op (a, b) ->
        [ Optree.Op (a, Optree.Op (b, y)); Optree.Op (b, Optree.Op (a, y)) ]
      | Optree.Obj _ | Optree.Op1 _ -> [])
      @
      match y with
      | Optree.Op (a, b) ->
        [ Optree.Op (Optree.Op (x, a), b); Optree.Op (Optree.Op (x, b), a) ]
      | Optree.Obj _ | Optree.Op1 _ -> []
    in
    here
    @ List.map (fun x' -> Optree.Op (x', y)) (spec_rotations x)
    @ List.map (fun y' -> Optree.Op (x, y')) (spec_rotations y)

(* Canonical key modulo commutativity, to deduplicate shapes. *)
type key = KLeaf of int | KOp1 of key | KOp of key * key

let rec canon (spec : Optree.spec) : key =
  match spec with
  | Optree.Obj k -> KLeaf k
  | Optree.Op1 a -> KOp1 (canon a)
  | Optree.Op (a, b) ->
    let ka = canon a and kb = canon b in
    if ka <= kb then KOp (ka, kb) else KOp (kb, ka)

let dedup specs =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun s ->
      let k = canon s in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.replace seen k ();
        true
      end)
    specs

let neighbors tree =
  let n_object_types = Optree.n_object_types tree in
  let spec = Optree.to_spec tree in
  spec_rotations spec
  |> List.filter (fun s -> canon s <> canon spec)
  |> dedup
  |> List.map (Optree.of_spec ~n_object_types)

(* ------------------------------------------------------------------ *)
(* Canonical shapes                                                    *)

let spec_of_leaves build leaves =
  match leaves with
  | [] | [ _ ] -> invalid_arg "Rewrite: need at least two leaves"
  | _ -> build (Array.of_list leaves)

let balanced_build leaves =
  let rec go lo hi =
    (* [lo, hi) with hi - lo >= 1 *)
    if hi - lo = 1 then Optree.Obj leaves.(lo)
    else begin
      let mid = (lo + hi) / 2 in
      Optree.Op (go lo mid, go mid hi)
    end
  in
  go 0 (Array.length leaves)

let left_deep_build leaves =
  let n = Array.length leaves in
  let rec go acc i =
    if i >= n then acc else go (Optree.Op (acc, Optree.Obj leaves.(i))) (i + 1)
  in
  go (Optree.Op (Optree.Obj leaves.(0), Optree.Obj leaves.(1))) 2

let balanced_of tree =
  Optree.of_spec ~n_object_types:(Optree.n_object_types tree)
    (spec_of_leaves balanced_build (leaf_multiset tree))

let left_deep_of tree =
  Optree.of_spec ~n_object_types:(Optree.n_object_types tree)
    (spec_of_leaves left_deep_build (leaf_multiset tree))

(* ------------------------------------------------------------------ *)
(* Exhaustive enumeration                                              *)

(* ------------------------------------------------------------------ *)
(* Hill climbing                                                       *)

let random_walk rng tree steps =
  let rec go tree i =
    if i = 0 then tree
    else
      match neighbors tree with
      | [] -> tree
      | ns -> go (Prng.choose_list rng ns) (i - 1)
  in
  go tree steps

let optimize rng ~evaluate ?(steps = 50) ?(restarts = 2) tree =
  let better a b =
    match (a, b) with
    | Some x, Some y -> x < y -. 1e-9
    | Some _, None -> true
    | None, _ -> false
  in
  let climb start =
    let rec go current cost fuel =
      if fuel = 0 then (current, cost)
      else begin
        let scored =
          List.map (fun t -> (t, evaluate t)) (neighbors current)
        in
        let best =
          List.fold_left
            (fun (bt, bc) (t, c) -> if better c bc then (t, c) else (bt, bc))
            (current, cost) scored
        in
        if fst best == current then (current, cost)
        else go (fst best) (snd best) (fuel - 1)
      end
    in
    go start (evaluate start) steps
  in
  let starts =
    tree :: List.init restarts (fun i -> random_walk rng tree (3 + (2 * i)))
  in
  List.fold_left
    (fun (bt, bc) start ->
      let t, c = climb start in
      if better c bc then (t, c) else (bt, bc))
    (tree, evaluate tree)
    starts
