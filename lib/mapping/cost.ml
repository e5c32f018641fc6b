module Graph = Insp_tree.Graph
module Objects = Insp_tree.Objects
module Catalog = Insp_platform.Catalog

let of_alloc catalog alloc =
  Array.fold_left
    (fun acc (p : Alloc.proc) -> acc +. Catalog.config_cost catalog p.config)
    0.0 (Alloc.procs alloc)

let per_proc catalog alloc =
  Array.map
    (fun (p : Alloc.proc) -> Catalog.config_cost catalog p.config)
    (Alloc.procs alloc)

let ceil_div x y = int_of_float (Float.ceil (x /. y))

let lower_bound_processors g catalog =
  let best = Catalog.best catalog in
  let n = Graph.n_nodes g in
  let total_compute = ref 0.0 in
  for i = 0 to n - 1 do
    total_compute := !total_compute +. (Graph.rate g i *. g.Graph.work.(i))
  done;
  let compute_lb = ceil_div !total_compute best.cpu.speed in
  (* Every distinct object type read by a leaf must be downloaded by at
     least one processor, whatever the grouping. *)
  let total_download =
    List.fold_left
      (fun acc k -> acc +. Objects.rate g.Graph.objects k)
      0.0
      (Graph.distinct_objects g (List.init n Fun.id))
  in
  let nic_lb = ceil_div total_download best.nic.bandwidth in
  max 1 (max compute_lb nic_lb)

let lower_bound_cost g catalog =
  let cheapest = Catalog.cheapest catalog in
  float_of_int (lower_bound_processors g catalog)
  *. Catalog.config_cost catalog cheapest
