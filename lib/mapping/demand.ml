module App = Insp_tree.App
module Optree = Insp_tree.Optree
module Catalog = Insp_platform.Catalog

type t = {
  compute : float;
  download : float;
  comm_in : float;
  comm_out : float;
}

let nic t = t.download +. t.comm_in +. t.comm_out

let distinct_objects app group =
  let tree = App.tree app in
  List.concat_map (Optree.leaves tree) group |> List.sort_uniq compare

(* Accumulators for [of_group]: an all-float record is stored flat, so
   the closures below update it without boxing. *)
type acc = {
  mutable a_compute : float;
  mutable a_download : float;
  mutable a_comm_in : float;
  mutable a_comm_out : float;
}

let of_group app group =
  let group = List.sort_uniq Int.compare group in
  let in_group i = List.mem i group in
  let tree = App.tree app in
  let rho = App.rho app in
  let work = App.works app and output = App.output_sizes app in
  let s = { a_compute = 0.0; a_download = 0.0; a_comm_in = 0.0; a_comm_out = 0.0 } in
  let child j =
    if not (in_group j) then s.a_comm_in <- s.a_comm_in +. (rho *. output.(j))
  in
  List.iter
    (fun i ->
      s.a_compute <- s.a_compute +. (rho *. work.(i));
      List.iter child (Optree.children tree i);
      match Optree.parent tree i with
      | Some p when not (in_group p) ->
        s.a_comm_out <- s.a_comm_out +. (rho *. output.(i))
      | Some _ | None -> ())
    group;
  List.iter
    (fun k -> s.a_download <- s.a_download +. App.download_rate app k)
    (distinct_objects app group);
  {
    compute = s.a_compute;
    download = s.a_download;
    comm_in = s.a_comm_in;
    comm_out = s.a_comm_out;
  }

let of_operator app i = of_group app [ i ]

let tolerance = 1e-9

let leq value capacity = value <= capacity *. (1.0 +. tolerance) +. tolerance

let fits (config : Catalog.config) t =
  leq t.compute config.cpu.speed && leq (nic t) config.nic.bandwidth

let max_crossing_edge app group =
  let group = List.sort_uniq Int.compare group in
  let tree = App.tree app in
  let in_group i = List.mem i group in
  let rho = App.rho app in
  List.fold_left
    (fun acc i ->
      let acc =
        List.fold_left
          (fun acc j ->
            if in_group j then acc
            else Float.max acc (rho *. App.output_size app j))
          acc (Optree.children tree i)
      in
      match Optree.parent tree i with
      | Some p when not (in_group p) ->
        Float.max acc (rho *. App.output_size app i)
      | Some _ | None -> acc)
    0.0 group
