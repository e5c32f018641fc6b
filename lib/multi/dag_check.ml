module Objects = Insp_tree.Objects
module Graph = Insp_tree.Graph
module Check = Insp_mapping.Check
module Demand = Insp_mapping.Demand

(* Producers outside the group feeding members, with the fastest
   consuming rate inside the group. *)
let external_sources dag ~in_group group =
  List.fold_left
    (fun acc i ->
      let rate_i = (Dag.node dag i).Dag.rate in
      List.fold_left
        (fun acc input ->
          match input with
          | Dag.Object _ -> acc
          | Dag.Node j ->
            if in_group j then acc
            else
              let prev = try List.assoc j acc with Not_found -> 0.0 in
              (j, Float.max rate_i prev) :: List.remove_assoc j acc)
        acc (Dag.inputs dag i))
    [] group

let group_demand dag ~in_group group =
  let objects = Dag.objects dag in
  let compute =
    List.fold_left
      (fun acc i ->
        let n = Dag.node dag i in
        acc +. (n.Dag.rate *. n.Dag.work))
      0.0 group
  in
  let download =
    List.fold_left
      (fun acc k -> acc +. Objects.rate objects k)
      0.0
      (Graph.distinct_objects (Dag.graph dag) group)
  in
  let comm_in =
    List.fold_left
      (fun acc (j, rate) -> acc +. ((Dag.node dag j).Dag.output *. rate))
      0.0 (external_sources dag ~in_group group)
  in
  (* Conservative: one stream per external consumer. *)
  let comm_out =
    List.fold_left
      (fun acc i ->
        let out = (Dag.node dag i).Dag.output in
        List.fold_left
          (fun acc c ->
            if in_group c then acc
            else acc +. (out *. (Dag.node dag c).Dag.rate))
          acc (Dag.consumers dag i))
      0.0 group
  in
  { Demand.compute; download; comm_in; comm_out }

let check dag platform alloc = Check.check_graph (Dag.graph dag) platform alloc
