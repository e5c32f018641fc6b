module Graph = Insp_tree.Graph
module Objects = Insp_tree.Objects

(* [pop.(k)]: the number of operators downloading object type [k] (the
   paper's popularity count); several leaves of one type count once. *)
let object_popularity g =
  let pop = Array.make (Objects.count g.Graph.objects) 0 in
  for i = 0 to Graph.n_nodes g - 1 do
    List.iter (fun k -> pop.(k) <- pop.(k) + 1) (Common.object_set g i)
  done;
  pop

let popularity_sum pop g i =
  List.fold_left (fun acc k -> acc +. float_of_int pop.(k)) 0.0
    (Common.object_set g i)

let shares_object g a b =
  List.exists (fun k -> List.mem k (Common.object_set g b))
    (Common.object_set g a)

let run _rng g platform =
  let b = Builder.create g platform in
  let is_al i = Graph.leaves g i <> [] in
  let pop = object_popularity g in
  let by_popularity_desc ops =
    List.sort
      (fun a b ->
        let c = compare (popularity_sum pop g b) (popularity_sum pop g a) in
        if c <> 0 then c else compare a b)
      ops
  in
  let spend = Common.round_budget b in
  let rec rounds () =
    if not (spend ()) then Common.not_converged
    else
    let al_pending = List.filter is_al (Builder.unassigned b) |> by_popularity_desc in
    match al_pending with
    | [] -> Common.place_rest b
    | first :: others -> (
      match Common.acquire_with_grouping b ~style:`Best first with
      | Error e -> Error e
      | Ok gid ->
        let sharing = List.filter (shares_object g first) others in
        Common.fill b gid (by_popularity_desc sharing);
        let non_al =
          List.filter (fun i -> not (is_al i)) (Builder.unassigned b)
        in
        Common.fill b gid (Common.by_work_desc g non_al);
        rounds ())
  in
  rounds ()
