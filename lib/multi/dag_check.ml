module Objects = Insp_tree.Objects
module Platform = Insp_platform.Platform
module Servers = Insp_platform.Servers
module Catalog = Insp_platform.Catalog
module Alloc = Insp_mapping.Alloc
module Check = Insp_mapping.Check

type demand = {
  compute : float;
  download : float;
  comm_in : float;
  comm_out : float;
}

let nic d = d.download +. d.comm_in +. d.comm_out

let distinct_objects dag group =
  List.concat_map
    (fun i ->
      List.filter_map
        (function Dag.Object k -> Some k | Dag.Node _ -> None)
        (Dag.inputs dag i))
    group
  |> List.sort_uniq compare

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
      0.0 (distinct_objects dag group)
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
  { compute; download; comm_in; comm_out }

(* Streams leaving processor [u]: one per (producer on u, destination
   processor), at the max rate of the destination's consumers. *)
let outgoing_streams dag alloc u =
  List.concat_map
    (fun i ->
      let out = (Dag.node dag i).Dag.output in
      let per_dest =
        List.fold_left
          (fun acc c ->
            match Alloc.assignment alloc c with
            | Some v when v <> u ->
              let rate = (Dag.node dag c).Dag.rate in
              let prev = try List.assoc v acc with Not_found -> 0.0 in
              (v, Float.max rate prev) :: List.remove_assoc v acc
            | Some _ | None -> acc)
          [] (Dag.consumers dag i)
      in
      List.map (fun (v, rate) -> (i, v, out *. rate)) per_dest)
    (Alloc.operators_of alloc u)

let proc_demand dag alloc u =
  let d =
    group_demand dag
      ~in_group:(fun i -> Alloc.host alloc i = u)
      (Alloc.operators_of alloc u)
  in
  let comm_out =
    List.fold_left (fun acc (_, _, f) -> acc +. f) 0.0
      (outgoing_streams dag alloc u)
  in
  { d with comm_out }

let tolerance = 1e-9
let exceeds load cap = load > cap *. (1.0 +. tolerance) +. tolerance

(* Constraint (5) in one sweep over each processor's outgoing streams
   instead of probing all O(procs^2) pairs.  Processor [u]'s flow into
   [v] is summed over its streams in list (operator) order — the order a
   per-pair walk of the same list sums it.  A pair's load is [into (a, b)
   +. into (b, a)]; float addition commutes, so the reported loads are
   bit-identical to the all-pairs sum, and pairs are visited in
   ascending [(a, b)] order.  Pairs no stream crosses carry zero flow
   and never exceed the non-negative capacity. *)
let proc_link_violations dag platform alloc add =
  let n_procs = Alloc.n_procs alloc in
  let capacity = platform.Platform.proc_link in
  (* [into.(v)] is [u]'s flow into [v] while [touched.(v) = u];
     [pairs.(a)] lists [(b, directed flow)] for the pairs [a < b]. *)
  let touched = Array.make n_procs (-1) and into = Array.make n_procs 0.0 in
  let pairs = Array.make n_procs [] in
  for u = 0 to n_procs - 1 do
    let streams = outgoing_streams dag alloc u in
    List.iter
      (fun (_, v, f) ->
        if touched.(v) <> u then begin
          touched.(v) <- u;
          into.(v) <- 0.0
        end;
        into.(v) <- into.(v) +. f)
      streams;
    List.iter
      (fun (_, v, _) ->
        if touched.(v) = u then begin
          touched.(v) <- -1;
          let a = min u v and b = max u v in
          pairs.(a) <- (b, into.(v)) :: pairs.(a)
        end)
      streams
  done;
  for a = 0 to n_procs - 1 do
    let rec walk = function
      | [] -> ()
      | (b, f) :: (b', f') :: rest when b = b' -> report b (f +. f') rest
      | (b, f) :: rest -> report b f rest
    and report b load rest =
      if exceeds load capacity then
        add
          (Check.Proc_link_overload { proc_a = a; proc_b = b; load; capacity });
      walk rest
    in
    walk (List.sort compare pairs.(a))
  done

let check dag platform alloc =
  let servers = platform.Platform.servers in
  let objects = Dag.objects dag in
  let n_procs = Alloc.n_procs alloc in
  let acc = ref [] in
  let add v = acc := v :: !acc in
  (* structural *)
  for i = 0 to Dag.n_nodes dag - 1 do
    if Alloc.assignment alloc i = None then add (Check.Unassigned_operator i)
  done;
  for u = 0 to n_procs - 1 do
    let needed = distinct_objects dag (Alloc.operators_of alloc u) in
    let planned = Alloc.downloads_of alloc u in
    let planned_types = List.map fst planned in
    List.iter
      (fun k ->
        if not (List.mem k planned_types) then
          add (Check.Missing_download { proc = u; object_type = k }))
      needed;
    List.iter
      (fun (k, l) ->
        if not (List.mem k needed) then
          add (Check.Extraneous_download { proc = u; object_type = k });
        if l < 0 || l >= Servers.n_servers servers || not (Servers.holds servers l k)
        then add (Check.Not_held { proc = u; object_type = k; server = l }))
      planned;
    List.iter
      (fun k ->
        if List.length (List.filter (fun k' -> k' = k) planned_types) > 1
        then add (Check.Duplicate_download { proc = u; object_type = k }))
      (List.sort_uniq compare planned_types)
  done;
  (* (1) and (2) *)
  for u = 0 to n_procs - 1 do
    let config = (Alloc.proc alloc u).Alloc.config in
    let d = proc_demand dag alloc u in
    if exceeds d.compute config.Catalog.cpu.Catalog.speed then
      add
        (Check.Compute_overload
           { proc = u; load = d.compute; capacity = config.Catalog.cpu.Catalog.speed });
    let planned_rate =
      List.fold_left
        (fun acc (k, _) -> acc +. Objects.rate objects k)
        0.0 (Alloc.downloads_of alloc u)
    in
    let nic_load = planned_rate +. d.comm_in +. d.comm_out in
    if exceeds nic_load config.Catalog.nic.Catalog.bandwidth then
      add
        (Check.Nic_overload
           {
             proc = u;
             load = nic_load;
             capacity = config.Catalog.nic.Catalog.bandwidth;
           })
  done;
  (* (3) and (4) *)
  for l = 0 to Servers.n_servers servers - 1 do
    let total = ref 0.0 in
    for u = 0 to n_procs - 1 do
      let link_load =
        List.fold_left
          (fun acc (k, l') ->
            if l' = l then acc +. Objects.rate objects k else acc)
          0.0 (Alloc.downloads_of alloc u)
      in
      total := !total +. link_load;
      if exceeds link_load platform.Platform.server_link then
        add
          (Check.Server_link_overload
             {
               server = l;
               proc = u;
               load = link_load;
               capacity = platform.Platform.server_link;
             })
    done;
    if exceeds !total (Servers.card servers l) then
      add
        (Check.Server_card_overload
           { server = l; load = !total; capacity = Servers.card servers l })
  done;
  proc_link_violations dag platform alloc add;
  List.rev !acc
