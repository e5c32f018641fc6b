module App = Insp_tree.App
module Graph = Insp_tree.Graph
module Optree = Insp_tree.Optree

let popularity_sum pop app i =
  List.fold_left (fun acc k -> acc +. float_of_int pop.(k)) 0.0
    (Common.object_set app i)

let shares_object app a b =
  List.exists (fun k -> List.mem k (Common.object_set app b))
    (Common.object_set app a)

(* Comp-Greedy style placement of whatever operators remain; bounded
   because the grouping fallback can release operators. *)
let place_rest b app =
  let budget = ref ((App.n_operators app * App.n_operators app) + 16) in
  let rec loop () =
    match Common.by_work_desc app (Builder.unassigned b) with
    | [] -> Ok b
    | heaviest :: _ ->
      decr budget;
      if !budget <= 0 then
        Error "placement did not converge (grouping fallback oscillates)"
      else (
        match Common.acquire_with_grouping b ~style:`Best heaviest with
        | Error e -> Error e
        | Ok gid ->
          Common.fill b gid (Common.by_work_desc app (Builder.unassigned b));
          loop ())
  in
  loop ()

let run _rng app platform =
  let b = Builder.create (Graph.of_app app) platform in
  let tree = App.tree app in
  let pop = Optree.object_popularity tree in
  let by_popularity_desc ops =
    List.sort
      (fun a b ->
        let c = compare (popularity_sum pop app b) (popularity_sum pop app a) in
        if c <> 0 then c else compare a b)
      ops
  in
  let budget = ref ((App.n_operators app * App.n_operators app) + 16) in
  let rec rounds () =
    decr budget;
    if !budget <= 0 then
      Error "placement did not converge (grouping fallback oscillates)"
    else
    let al_pending =
      List.filter (Optree.is_al_operator tree) (Builder.unassigned b)
      |> by_popularity_desc
    in
    match al_pending with
    | [] -> place_rest b app
    | first :: others -> (
      match Common.acquire_with_grouping b ~style:`Best first with
      | Error e -> Error e
      | Ok gid ->
        let sharing = List.filter (shares_object app first) others in
        Common.fill b gid (by_popularity_desc sharing);
        let non_al =
          List.filter
            (fun i -> not (Optree.is_al_operator tree i))
            (Builder.unassigned b)
        in
        Common.fill b gid (Common.by_work_desc app non_al);
        rounds ())
  in
  rounds ()
