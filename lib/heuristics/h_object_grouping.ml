module Graph = Insp_tree.Graph
module Objects = Insp_tree.Objects

(* Every order the heuristic walks is static, so it is built once per
   run: each operator's object set and popularity sum, the al-operators
   by non-increasing popularity sum and the other operators by
   non-increasing work (both ties by id).  A round filters these orders
   instead of re-sorting the unassigned pool; both orders are total, so
   the filtered order is the one a per-round sort would give. *)
let run _rng g platform =
  let b = Builder.create g platform in
  let n = Graph.n_nodes g in
  let object_sets = Array.init n (Common.object_set g) in
  (* [pop.(k)]: the number of operators downloading object type [k]
     (the paper's popularity count); several leaves of one type count
     once. *)
  let pop = Array.make (Objects.count g.Graph.objects) 0 in
  Array.iter (List.iter (fun k -> pop.(k) <- pop.(k) + 1)) object_sets;
  let popularity =
    Array.map
      (List.fold_left (fun acc k -> acc +. float_of_int pop.(k)) 0.0)
      object_sets
  in
  let al, non_al =
    List.partition (fun i -> object_sets.(i) <> []) (List.init n Fun.id)
  in
  let al_by_popularity =
    List.sort
      (fun x y ->
        let c = compare popularity.(y) popularity.(x) in
        if c <> 0 then c else compare x y)
      al
  in
  let non_al_by_work = Common.by_work_desc g non_al in
  let shares_object a i =
    List.exists (fun k -> List.mem k object_sets.(i)) object_sets.(a)
  in
  let budget = Common.rounds b in
  let rec rounds () =
    if not (Common.next_round budget) then Common.not_converged
    else
    let al_pending =
      List.filter (fun i -> Builder.assignment b i = None) al_by_popularity
    in
    match al_pending with
    | [] -> Common.place_rest b
    | first :: others -> (
      match Common.acquire_with_grouping b ~style:`Best first with
      | Error e -> Error e
      | Ok gid ->
        Common.fill b gid (List.filter (shares_object first) others);
        Common.fill b gid non_al_by_work;
        rounds ())
  in
  rounds ()
