module Graph = Insp_tree.Graph
module Platform = Insp_platform.Platform
module Servers = Insp_platform.Servers

(* The al-operators' work order is static, so it is built once per
   run; each [pack_object] round filters the
   order instead of re-sorting the unassigned pool.  The order is total
   (ties by id), so the filtered list is the one a per-round sort would
   give. *)
let run _rng g platform =
  let b = Builder.create g platform in
  let n = Graph.n_nodes g in
  let servers = platform.Platform.servers in
  let used_objects = Graph.distinct_objects g (List.init n Fun.id) in
  let by_availability_asc =
    List.sort
      (fun a b ->
        let c = compare (Servers.availability servers a)
                  (Servers.availability servers b) in
        if c <> 0 then c else compare a b)
      used_objects
  in
  let al_by_work =
    Common.by_work_desc g
      (List.filter (fun i -> Graph.n_leaves g i > 0) (List.init n Fun.id))
  in
  let rounds = Common.rounds b in
  let rec pack_object k =
    if not (Common.next_round rounds) then Common.not_converged
    else
    let pending =
      List.filter
        (fun i ->
          Builder.assignment b i = None
          && Graph.object_before g i k (Graph.n_leaves g i))
        al_by_work
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
    | [] -> Common.place_rest b
    | k :: rest -> (
      (* a round reads its object too: states seen packing another one
         do not repeat this loop's *)
      Common.restart rounds;
      match pack_object k with Error e -> Error e | Ok () -> objects rest)
  in
  objects by_availability_asc
