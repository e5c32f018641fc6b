module Graph = Insp_tree.Graph
module Objects = Insp_tree.Objects

(* Whether [a] and [i] download a common object type: one of [a]'s
   leaves from slot [k] on is among [i]'s. *)
let rec shares_from g a i k =
  k < Graph.n_leaves g a
  && (Graph.object_before g i (Graph.leaf g a k) (Graph.n_leaves g i)
     || shares_from g a i (k + 1))

(* Every order the heuristic walks is static, so it is built once per
   run: each operator's popularity sum, the al-operators by
   non-increasing popularity sum and the other operators by
   non-increasing work (both ties by id).  A round filters these orders
   instead of re-sorting the unassigned pool; both orders are total, so
   the filtered order is the one a per-round sort would give. *)
let run _rng g platform =
  let b = Builder.create g platform in
  let n = Graph.n_nodes g in
  (* whether slot [k] of [i] holds the first leaf of its object type
     there: several leaves of one type count once *)
  let first i k = not (Graph.object_before g i (Graph.leaf g i k) k) in
  (* [pop.(o)]: the number of operators downloading object type [o]
     (the paper's popularity count) *)
  let pop = Array.make (Objects.count g.Graph.objects) 0 in
  for i = 0 to n - 1 do
    for k = 0 to Graph.n_leaves g i - 1 do
      let o = Graph.leaf g i k in
      if first i k then pop.(o) <- pop.(o) + 1
    done
  done;
  (* sums of integers, so exact in any order *)
  let popularity = Array.make n 0.0 in
  for i = 0 to n - 1 do
    for k = 0 to Graph.n_leaves g i - 1 do
      if first i k then
        popularity.(i) <- popularity.(i) +. float_of_int pop.(Graph.leaf g i k)
    done
  done;
  let al, non_al =
    List.partition (fun i -> Graph.n_leaves g i > 0) (List.init n Fun.id)
  in
  let al_by_popularity =
    List.sort
      (fun x y ->
        let c = compare popularity.(y) popularity.(x) in
        if c <> 0 then c else compare x y)
      al
  in
  let non_al_by_work = Common.by_work_desc g non_al in
  let shares_object a i = shares_from g a i 0 in
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
