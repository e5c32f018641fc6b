module App = Insp_tree.App
module Graph = Insp_tree.Graph
module Optree = Insp_tree.Optree
module Platform = Insp_platform.Platform
module Servers = Insp_platform.Servers

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
  let servers = platform.Platform.servers in
  let used_objects =
    Optree.leaf_instances tree |> List.map snd |> List.sort_uniq compare
  in
  let by_availability_asc =
    List.sort
      (fun a b ->
        let c = compare (Servers.availability servers a)
                  (Servers.availability servers b) in
        if c <> 0 then c else compare a b)
      used_objects
  in
  let needs_object i k = List.mem k (Common.object_set app i) in
  let budget = ref ((App.n_operators app * App.n_operators app) + 16) in
  let rec pack_object k =
    decr budget;
    if !budget <= 0 then
      Error "placement did not converge (grouping fallback oscillates)"
    else
    let pending =
      List.filter
        (fun i -> Optree.is_al_operator tree i && needs_object i k)
        (Builder.unassigned b)
      |> Common.by_work_desc app
    in
    match pending with
    | [] -> Ok ()
    | first :: others -> (
      match Common.acquire_with_grouping b ~style:`Best first with
      | Error e -> Error e
      | Ok gid ->
        Common.fill b gid others;
        pack_object k)
  in
  let rec objects = function
    | [] -> place_rest b app
    | k :: rest -> (
      match pack_object k with Error e -> Error e | Ok () -> objects rest)
  in
  objects by_availability_asc
