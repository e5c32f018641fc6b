module App = Insp_tree.App
module Optree = Insp_tree.Optree
module Platform = Insp_platform.Platform
module Servers = Insp_platform.Servers

type violation =
  | Unassigned_operator of int
  | Missing_download of { proc : int; object_type : int }
  | Extraneous_download of { proc : int; object_type : int }
  | Duplicate_download of { proc : int; object_type : int }
  | Not_held of { proc : int; object_type : int; server : int }
  | Compute_overload of { proc : int; load : float; capacity : float }
  | Nic_overload of { proc : int; load : float; capacity : float }
  | Server_card_overload of { server : int; load : float; capacity : float }
  | Server_link_overload of {
      server : int;
      proc : int;
      load : float;
      capacity : float;
    }
  | Proc_link_overload of {
      proc_a : int;
      proc_b : int;
      load : float;
      capacity : float;
    }

let tolerance = 1e-9

let exceeds load capacity = load > capacity *. (1.0 +. tolerance) +. tolerance

(* Every processor's distinct needed object types, ascending: [stamp.(k)
   = u] marks the types already collected for [u]. *)
let distinct_objects app alloc =
  let tree = App.tree app in
  let stamp = Array.make (Optree.n_object_types tree) (-1) in
  Array.init (Alloc.n_procs alloc) (fun u ->
      let acc = ref [] in
      let mark k =
        if stamp.(k) <> u then begin
          stamp.(k) <- u;
          acc := k :: !acc
        end
      in
      List.iter (fun i -> List.iter mark (Optree.leaves tree i)) (Alloc.operators_of alloc u);
      List.sort Int.compare !acc)

(* The sweeps below visit the operators in id order.  Each processor's
   members are then met in their sorted list order, children in tree
   order, so every per-processor (and per-pair) sum is accumulated term
   for term in the order of its per-group definition ([Demand.of_group],
   [pair_flow]) while the tree is read sequentially; membership is a
   lookup in the alloc's dense assignment, not a list scan. *)

let rec comm_in_of alloc rho output sums u = function
  | [] -> ()
  | j :: rest ->
    if Alloc.host alloc j <> u then sums.(u) <- sums.(u) +. (rho *. output.(j));
    comm_in_of alloc rho output sums u rest

let demands app alloc ~needed_of =
  let tree = App.tree app and rho = App.rho app in
  let work = App.works app and output = App.output_sizes app in
  let n_procs = Alloc.n_procs alloc in
  let compute = Array.make n_procs 0.0 in
  let comm_in = Array.make n_procs 0.0 and comm_out = Array.make n_procs 0.0 in
  for i = 0 to App.n_operators app - 1 do
    let u = Alloc.host alloc i in
    if u >= 0 then begin
      compute.(u) <- compute.(u) +. (rho *. work.(i));
      comm_in_of alloc rho output comm_in u (Optree.children tree i);
      match Optree.parent tree i with
      | Some p when Alloc.host alloc p <> u ->
        comm_out.(u) <- comm_out.(u) +. (rho *. output.(i))
      | Some _ | None -> ()
    end
  done;
  Array.init n_procs (fun u ->
      {
        Demand.compute = compute.(u);
        download =
          List.fold_left (fun acc k -> acc +. App.download_rate app k) 0.0 needed_of.(u);
        comm_in = comm_in.(u);
        comm_out = comm_out.(u);
      })

let proc_demands app alloc =
  demands app alloc ~needed_of:(distinct_objects app alloc)

let proc_download_rate app alloc u =
  List.fold_left
    (fun acc (k, _) -> acc +. App.download_rate app k)
    0.0
    (Alloc.downloads_of alloc u)

let pair_flow app alloc u v =
  let tree = App.tree app in
  let rho = App.rho app in
  let flow_into host other =
    (* Children of operators on [host] that live on [other]. *)
    List.fold_left
      (fun acc i ->
        List.fold_left
          (fun acc j ->
            if Alloc.host alloc j = other then
              acc +. (rho *. App.output_size app j)
            else acc)
          acc (Optree.children tree i))
      0.0
      (Alloc.operators_of alloc host)
  in
  flow_into u v +. flow_into v u

let structural_violations app platform alloc ~needed_of =
  let servers = platform.Platform.servers in
  let n_types = Optree.n_object_types (App.tree app) in
  let need_stamp = Array.make n_types (-1) in
  let plan_stamp = Array.make n_types (-1) in
  let stamped stamp u k = k >= 0 && k < n_types && stamp.(k) = u in
  let acc = ref [] in
  let add v = acc := v :: !acc in
  for i = 0 to App.n_operators app - 1 do
    if Alloc.host alloc i < 0 then add (Unassigned_operator i)
  done;
  for u = 0 to Alloc.n_procs alloc - 1 do
    let needed = needed_of.(u) in
    let planned = Alloc.downloads_of alloc u in
    List.iter (fun k -> need_stamp.(k) <- u) needed;
    List.iter (fun (k, _) -> if k >= 0 && k < n_types then plan_stamp.(k) <- u) planned;
    List.iter
      (fun k ->
        if not (stamped plan_stamp u k) then
          add (Missing_download { proc = u; object_type = k }))
      needed;
    List.iter
      (fun (k, l) ->
        if not (stamped need_stamp u k) then
          add (Extraneous_download { proc = u; object_type = k });
        if
          l < 0
          || l >= Servers.n_servers servers
          || not (Servers.holds servers l k)
        then add (Not_held { proc = u; object_type = k; server = l }))
      planned;
    (* The same object type downloaded from several servers doubles its
       NIC load; the plan is malformed even when each entry is valid.
       The plan is sorted, so one type's entries are adjacent. *)
    let rec skip k = function
      | (k', _) :: rest when k' = k -> skip k rest
      | rest -> rest
    in
    let rec duplicates = function
      | (k, _) :: (k', _) :: rest when k = k' ->
        add (Duplicate_download { proc = u; object_type = k });
        duplicates (skip k rest)
      | _ :: rest -> duplicates rest
      | [] -> ()
    in
    duplicates planned
  done;
  List.rev !acc

(* Constraint (5), per processor pair, in one sweep over the tree edges
   instead of probing all O(procs^2) pairs through [pair_flow].  The
   sweep lists each host's crossing child edges in operator order; the
   host's directed flow into each neighbour [v] is then summed in that
   order — exactly the order [pair_flow u v] sums it — into row [u] of a
   CSR table sorted by [v].  The transposed table lists each
   processor's incoming flows by ascending source, so merging row [a]
   with column [a] visits the pairs [(a, b)], [b > a], in ascending
   order and sums [into (a, b) +. into (b, a)] like [pair_flow a b]: the
   reported loads are bit-identical.  Pairs no edge touches carry zero
   flow and can never exceed the non-negative capacity. *)
let rec crossing alloc f u = function
  | [] -> ()
  | j :: rest ->
    let v = Alloc.host alloc j in
    if v >= 0 && v <> u then f u v j;
    crossing alloc f u rest

let proc_link_violations app platform alloc add =
  let tree = App.tree app and rho = App.rho app in
  let output = App.output_sizes app in
  let n_procs = Alloc.n_procs alloc in
  let sweep f =
    for i = 0 to App.n_operators app - 1 do
      let u = Alloc.host alloc i in
      if u >= 0 then crossing alloc f u (Optree.children tree i)
    done
  in
  let row = Array.make (n_procs + 1) 0 in
  sweep (fun u _ _ -> row.(u + 1) <- row.(u + 1) + 1);
  for u = 0 to n_procs - 1 do
    row.(u + 1) <- row.(u + 1) + row.(u)
  done;
  let m = max 1 row.(n_procs) in
  let edge_v = Array.make m 0 and edge_w = Array.make m 0.0 in
  let fill = Array.sub row 0 n_procs in
  sweep (fun u v j ->
      edge_v.(fill.(u)) <- v;
      edge_w.(fill.(u)) <- rho *. output.(j);
      fill.(u) <- fill.(u) + 1);
  (* Aggregate each host's edges into its sorted row. *)
  let start = Array.make (n_procs + 1) 0 in
  let dst = Array.make m 0 and out_w = Array.make m 0.0 in
  let stamp = Array.make n_procs (-1) and into = Array.make n_procs 0.0 in
  let k = ref 0 in
  for u = 0 to n_procs - 1 do
    start.(u) <- !k;
    for e = row.(u) to row.(u + 1) - 1 do
      let v = edge_v.(e) in
      if stamp.(v) <> u then begin
        stamp.(v) <- u;
        into.(v) <- 0.0;
        let x = ref !k in
        while !x > start.(u) && dst.(!x - 1) > v do
          dst.(!x) <- dst.(!x - 1);
          decr x
        done;
        dst.(!x) <- v;
        incr k
      end;
      into.(v) <- into.(v) +. edge_w.(e)
    done;
    for e = start.(u) to !k - 1 do
      out_w.(e) <- into.(dst.(e))
    done
  done;
  start.(n_procs) <- !k;
  let col = Array.make (n_procs + 1) 0 in
  for e = 0 to !k - 1 do
    col.(dst.(e) + 1) <- col.(dst.(e) + 1) + 1
  done;
  for v = 0 to n_procs - 1 do
    col.(v + 1) <- col.(v + 1) + col.(v)
  done;
  Array.blit col 0 fill 0 n_procs;
  let src = Array.make m 0 and in_w = Array.make m 0.0 in
  for u = 0 to n_procs - 1 do
    for e = start.(u) to start.(u + 1) - 1 do
      let v = dst.(e) in
      src.(fill.(v)) <- u;
      in_w.(fill.(v)) <- out_w.(e);
      fill.(v) <- fill.(v) + 1
    done
  done;
  let capacity = platform.Platform.proc_link in
  for a = 0 to n_procs - 1 do
    let o = ref start.(a) and c = ref col.(a) in
    while !o < start.(a + 1) && dst.(!o) < a do incr o done;
    while !c < col.(a + 1) && src.(!c) < a do incr c done;
    while !o < start.(a + 1) || !c < col.(a + 1) do
      let bo = if !o < start.(a + 1) then dst.(!o) else max_int in
      let bc = if !c < col.(a + 1) then src.(!c) else max_int in
      let b = min bo bc in
      let fo = if bo = b then out_w.(!o) else 0.0 in
      let fc = if bc = b then in_w.(!c) else 0.0 in
      if bo = b then incr o;
      if bc = b then incr c;
      let load = fo +. fc in
      if exceeds load capacity then
        add (Proc_link_overload { proc_a = a; proc_b = b; load; capacity })
    done
  done

let capacity_violations app platform alloc ~needed_of =
  let servers = platform.Platform.servers in
  let n_procs = Alloc.n_procs alloc in
  let demand = demands app alloc ~needed_of in
  let acc = ref [] in
  let add v = acc := v :: !acc in
  (* Constraints (1) and (2), per processor.  The NIC download term uses
     the actual download plan, which coincides with the demand's distinct
     object set once the plan is structurally valid. *)
  for u = 0 to n_procs - 1 do
    let p = Alloc.proc alloc u in
    let d = demand.(u) in
    let config = p.Alloc.config in
    if exceeds d.Demand.compute config.cpu.speed then
      add
        (Compute_overload
           { proc = u; load = d.Demand.compute; capacity = config.cpu.speed });
    let nic_load =
      proc_download_rate app alloc u +. d.Demand.comm_in +. d.Demand.comm_out
    in
    if exceeds nic_load config.nic.bandwidth then
      add
        (Nic_overload
           { proc = u; load = nic_load; capacity = config.nic.bandwidth })
  done;
  (* Constraints (3) and (4), per server (and per server-processor
     link). *)
  for l = 0 to Servers.n_servers servers - 1 do
    let total = ref 0.0 in
    for u = 0 to n_procs - 1 do
      let link_load =
        List.fold_left
          (fun acc (k, l') ->
            if l' = l then acc +. App.download_rate app k else acc)
          0.0
          (Alloc.downloads_of alloc u)
      in
      total := !total +. link_load;
      if exceeds link_load platform.Platform.server_link then
        add
          (Server_link_overload
             {
               server = l;
               proc = u;
               load = link_load;
               capacity = platform.Platform.server_link;
             })
    done;
    if exceeds !total (Servers.card servers l) then
      add
        (Server_card_overload
           { server = l; load = !total; capacity = Servers.card servers l })
  done;
  proc_link_violations app platform alloc add;
  List.rev !acc

let check app platform alloc =
  let needed_of = distinct_objects app alloc in
  structural_violations app platform alloc ~needed_of
  @ capacity_violations app platform alloc ~needed_of

let is_feasible app platform alloc = check app platform alloc = []

let pp_violation ppf = function
  | Unassigned_operator i -> Format.fprintf ppf "operator n%d is unassigned" i
  | Missing_download { proc; object_type } ->
    Format.fprintf ppf "P%d misses a download source for o%d" proc object_type
  | Extraneous_download { proc; object_type } ->
    Format.fprintf ppf "P%d downloads o%d which no hosted operator needs" proc
      object_type
  | Duplicate_download { proc; object_type } ->
    Format.fprintf ppf
      "P%d downloads o%d from more than one server (NIC load double-counted)"
      proc object_type
  | Not_held { proc; object_type; server } ->
    Format.fprintf ppf "P%d downloads o%d from S%d which does not hold it" proc
      object_type server
  | Compute_overload { proc; load; capacity } ->
    Format.fprintf ppf "P%d compute overload: %.1f > %.1f Mops/s" proc load
      capacity
  | Nic_overload { proc; load; capacity } ->
    Format.fprintf ppf "P%d NIC overload: %.1f > %.1f MB/s" proc load capacity
  | Server_card_overload { server; load; capacity } ->
    Format.fprintf ppf "S%d card overload: %.1f > %.1f MB/s" server load
      capacity
  | Server_link_overload { server; proc; load; capacity } ->
    Format.fprintf ppf "link S%d->P%d overload: %.1f > %.1f MB/s" server proc
      load capacity
  | Proc_link_overload { proc_a; proc_b; load; capacity } ->
    Format.fprintf ppf "link P%d<->P%d overload: %.1f > %.1f MB/s" proc_a
      proc_b load capacity

let explain = function
  | [] -> "feasible"
  | violations ->
    String.concat "\n"
      (List.map (Format.asprintf "%a" pp_violation) violations)
