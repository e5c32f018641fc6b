module Graph = Insp_tree.Graph
module Objects = Insp_tree.Objects
module Catalog = Insp_platform.Catalog

type t = {
  compute : float;
  download : float;
  comm_in : float;
  comm_out : float;
}

let nic t = t.download +. t.comm_in +. t.comm_out

(* Accumulators for [of_group]: an all-float record is stored flat, so
   the closures below update it without boxing. *)
type acc = {
  mutable a_compute : float;
  mutable a_download : float;
  mutable a_comm_in : float;
  mutable a_comm_out : float;
}

let of_group g group =
  let group = List.sort_uniq Int.compare group in
  let in_group i = List.mem i group in
  let { Graph.rates; work; output; _ } = g in
  let s = { a_compute = 0.0; a_download = 0.0; a_comm_in = 0.0; a_comm_out = 0.0 } in
  (* one stream per outside producer, charged at the fastest member
     reading it, in its first slot there; on a tree, the closures' sizes
     are what test/alloc_counts.golden pins *)
  let rec producers i ps k = function
    | [] -> ()
    | j :: rest ->
      if
        (not (in_group j))
        && (not (Graph.read_before j ps k))
        && (Graph.n_consumers g j = 1 || Graph.fastest g j in_group = i)
      then
        s.a_comm_in <-
          s.a_comm_in +. (g.Graph.rates.(i * g.Graph.rate_stride) *. g.Graph.output.(j));
      producers i ps (k + 1) rest
  in
  List.iter
    (fun i ->
      let stride = g.Graph.rate_stride in
      s.a_compute <- s.a_compute +. (rates.(i * stride) *. work.(i));
      let ps = Graph.producers g i in
      producers i ps 0 ps;
      for k = 0 to Graph.n_consumers g i - 1 do
        let c = Graph.consumer g i k in
        if not (in_group c) then
          s.a_comm_out <- s.a_comm_out +. (rates.(c * stride) *. output.(i))
      done)
    group;
  List.iter
    (fun k -> s.a_download <- s.a_download +. Objects.rate g.Graph.objects k)
    (Graph.distinct_objects g group);
  {
    compute = s.a_compute;
    download = s.a_download;
    comm_in = s.a_comm_in;
    comm_out = s.a_comm_out;
  }

let of_operator g i = of_group g [ i ]

let tolerance = 1e-9

let leq value capacity = value <= capacity *. (1.0 +. tolerance) +. tolerance

let fits (config : Catalog.config) t =
  leq t.compute config.cpu.speed && leq (nic t) config.nic.bandwidth
