module Graph = Insp_tree.Graph
module Objects = Insp_tree.Objects
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

(* MB/s of a download-plan entry.  An entry naming an object type
   outside the catalog is reported as [Not_held] and loads nothing. *)
let plan_rate objects k =
  if k >= 0 && k < Objects.count objects then Objects.rate objects k else 0.0

(* Streams.  Node [j]'s output reaches processor [v] as one stream, at
   the fastest rate of [j]'s consumers on [v], charged at the first of
   them in id order, in its first input slot reading [j].  The sweeps
   visit nodes in id order and producers in slot order, so each sum is
   accumulated in the order DESIGN.md §8 fixes (on a tree, the order of
   the per-group definitions), and membership is a lookup in the
   alloc's dense assignment. *)

(* Operator [i]'s processor, [-1] when unassigned (see [Alloc.hosts]). *)
let[@inline] host hosts i = if i < Array.length hosts then hosts.(i) else -1

(* The rate of [j]'s stream to processor [v] if consumer [c] is where it
   is charged, else [0.0]. *)
let shared_rate g hosts j v c =
  let first = ref (-1) and r = ref 0.0 in
  for k = 0 to Graph.n_consumers g j - 1 do
    let c' = Graph.consumer g j k in
    if host hosts c' = v then begin
      if !first < 0 then first := c';
      r := Float.max !r g.Graph.rates.(c' * g.Graph.rate_stride)
    end
  done;
  if !first = c then !r else 0.0

(* Inlined, so an unshared graph (every tree) reads the consumer's rate
   without boxing a float. *)
let[@inline] stream_rate g hosts ~unshared j v c =
  if unshared then g.Graph.rates.(c * g.Graph.rate_stride)
  else shared_rate g hosts j v c

(* The rate of the stream from producer [j] on [v], read in slot [k] of
   [ps], if consumer [c] on [u] is where it is charged, else [0.0]. *)
let[@inline] charged_rate g hosts ~unshared ps k j v u c =
  if v <> u && (k = 0 || not (Graph.read_before j ps k)) then
    stream_rate g hosts ~unshared j u c
  else 0.0

(* [f u v c j] for every stream charged at consumer [c] on [u] from a
   producer [j] on [v], [v = -1] when [j] is unassigned. *)
let rec streams_into g hosts ~unshared f u c ps k = function
  | [] -> ()
  | j :: rest ->
    let v = host hosts j in
    if charged_rate g hosts ~unshared ps k j v u c > 0.0 then f u v c j;
    streams_into g hosts ~unshared f u c ps (k + 1) rest

type measurement = {
  need_start : int array;
  needed : int array;
  demands : Demand.t array;
  plan_rates : float array;
}

let measure g alloc =
  let { Graph.rates; rate_stride; work; output; objects; _ } = g in
  let n_procs = Alloc.n_procs alloc in
  let hosts = Alloc.hosts alloc and unshared = Graph.unshared g in
  let need_start, needed = Graph.object_rows g hosts n_procs in
  let compute = Array.make n_procs 0.0 in
  let comm_in = Array.make n_procs 0.0 and comm_out = Array.make n_procs 0.0 in
  let charge u _ c j =
    comm_in.(u) <- comm_in.(u) +. (stream_rate g hosts ~unshared j u c *. output.(j))
  in
  for i = 0 to Graph.n_nodes g - 1 do
    let u = host hosts i in
    if u >= 0 then begin
      compute.(u) <- compute.(u) +. (rates.(i * rate_stride) *. work.(i));
      let ps = Graph.producers g i in
      streams_into g hosts ~unshared charge u i ps 0 ps;
      (* destinations in the order [i]'s ascending consumers first
         reach them; an unassigned consumer is its own stream *)
      for k = 0 to Graph.n_consumers g i - 1 do
        let c = Graph.consumer g i k in
        let v = host hosts c in
        if v <> u then begin
          let r = stream_rate g hosts ~unshared:(unshared || v < 0) i v c in
          if r > 0.0 then comm_out.(u) <- comm_out.(u) +. (r *. output.(i))
        end
      done
    end
  done;
  let demand u =
    let download = ref 0.0 in
    for x = need_start.(u) to need_start.(u + 1) - 1 do
      download := !download +. Objects.rate objects needed.(x)
    done;
    { Demand.compute = compute.(u); download = !download; comm_in = comm_in.(u);
      comm_out = comm_out.(u) }
  in
  let plan_rates = Array.make n_procs 0.0 in
  for u = 0 to n_procs - 1 do
    List.iter
      (fun (k, _) -> plan_rates.(u) <- plan_rates.(u) +. plan_rate objects k)
      (Alloc.downloads_of alloc u)
  done;
  { need_start; needed; demands = Array.init n_procs demand; plan_rates }

let structural_violations g platform alloc m =
  let servers = platform.Platform.servers in
  let n_types = Objects.count g.Graph.objects in
  let need_stamp = Array.make n_types (-1) in
  let plan_stamp = Array.make n_types (-1) in
  let stamped stamp u k = k >= 0 && k < n_types && stamp.(k) = u in
  let acc = ref [] in
  let add v = acc := v :: !acc in
  for i = 0 to Graph.n_nodes g - 1 do
    if Alloc.host alloc i < 0 then add (Unassigned_operator i)
  done;
  for u = 0 to Alloc.n_procs alloc - 1 do
    let planned = Alloc.downloads_of alloc u in
    for x = m.need_start.(u) to m.need_start.(u + 1) - 1 do
      need_stamp.(m.needed.(x)) <- u
    done;
    List.iter (fun (k, _) -> if k >= 0 && k < n_types then plan_stamp.(k) <- u) planned;
    for x = m.need_start.(u) to m.need_start.(u + 1) - 1 do
      let k = m.needed.(x) in
      if not (stamped plan_stamp u k) then
        add (Missing_download { proc = u; object_type = k })
    done;
    List.iter
      (fun (k, l) ->
        if not (stamped need_stamp u k) then
          add (Extraneous_download { proc = u; object_type = k });
        if
          l < 0
          || l >= Servers.n_servers servers
          || k < 0
          || k >= Servers.n_object_types servers
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

(* Constraint (5), per processor pair, in one sweep over the charged
   streams instead of probing all O(procs^2) pairs.  A stream charged at
   a consumer on [u] from a producer on [v] belongs to the pair [(a, b)],
   [a = min u v < b]; a counting sort files the streams by [a], keeping
   the sweep's (consumer id, input slot) order within each row.  Row [a]
   then sums, per neighbour [b], the flow into [a] from [b] and the flow
   into [b] from [a], each in that order, and the pair's load is their
   sum.  The row's violations are reported by ascending [b].  Pairs no
   stream crosses carry zero flow and can never exceed the non-negative
   capacity. *)
let proc_link_violations g platform alloc add =
  let output = g.Graph.output in
  let n_procs = Alloc.n_procs alloc in
  let hosts = Alloc.hosts alloc and unshared = Graph.unshared g in
  let sweep f =
    for c = 0 to Graph.n_nodes g - 1 do
      let u = host hosts c in
      if u >= 0 then begin
        let ps = Graph.producers g c in
        streams_into g hosts ~unshared f u c ps 0 ps
      end
    done
  in
  let row = Array.make (n_procs + 1) 0 in
  sweep (fun u v _ _ -> if v >= 0 then row.(min u v + 1) <- row.(min u v + 1) + 1);
  for a = 0 to n_procs - 1 do
    row.(a + 1) <- row.(a + 1) + row.(a)
  done;
  (* [peer.(x)] is [b] for a stream into [a], [lnot b] for one into [b] *)
  let peer = Array.make row.(n_procs) 0 and flow = Array.make row.(n_procs) 0.0 in
  let fill = Array.sub row 0 n_procs in
  sweep (fun u v c j ->
      if v >= 0 then begin
        let a = min u v in
        let x = fill.(a) in
        peer.(x) <- (if a = u then v else lnot u);
        flow.(x) <- stream_rate g hosts ~unshared j u c *. output.(j);
        fill.(a) <- x + 1
      end);
  let stamp = Array.make n_procs (-1) in
  let into_a = Array.make n_procs 0.0 and into_b = Array.make n_procs 0.0 in
  let capacity = platform.Platform.proc_link in
  for a = 0 to n_procs - 1 do
    for x = row.(a) to row.(a + 1) - 1 do
      let p = peer.(x) in
      let b = if p >= 0 then p else lnot p in
      if stamp.(b) <> a then begin
        stamp.(b) <- a;
        into_a.(b) <- 0.0;
        into_b.(b) <- 0.0
      end;
      if p >= 0 then into_a.(b) <- into_a.(b) +. flow.(x)
      else into_b.(b) <- into_b.(b) +. flow.(x)
    done;
    (* Each neighbour once: the stamp moves past [a] as it is judged. *)
    let over = ref [] in
    for x = row.(a) to row.(a + 1) - 1 do
      let p = peer.(x) in
      let b = if p >= 0 then p else lnot p in
      if stamp.(b) = a then begin
        stamp.(b) <- n_procs;
        let load = into_a.(b) +. into_b.(b) in
        if exceeds load capacity then over := (b, load) :: !over
      end
    done;
    if !over <> [] then
      List.iter
        (fun (b, load) ->
          add (Proc_link_overload { proc_a = a; proc_b = b; load; capacity }))
        (List.sort (fun (b, _) (b', _) -> Int.compare b b') !over)
  done

(* An upper bound on every pair's constraint (5) load: the sum of the two
   largest comm_in demands.  A pair's load adds the flow into each end
   from the other, and each flow sums, in order, a subset of the
   non-negative terms of that end's comm_in; rounding is monotone, so
   neither flow exceeds its comm_in, and the load not their sum.  When
   the bound fits, no pair can be reported and the sweep is skipped. *)
let comm_in_pair_bound m =
  let top = ref 0.0 and second = ref 0.0 in
  Array.iter
    (fun d ->
      let x = d.Demand.comm_in in
      if x > !top then begin
        second := !top;
        top := x
      end
      else if x > !second then second := x)
    m.demands;
  !top +. !second

let capacity_violations g platform alloc m =
  let servers = platform.Platform.servers in
  let n_servers = Servers.n_servers servers in
  let n_procs = Alloc.n_procs alloc in
  let acc = ref [] in
  let add v = acc := v :: !acc in
  (* Constraints (1) and (2), per processor.  The NIC download term uses
     the actual download plan, which coincides with the demand's distinct
     object set once the plan is structurally valid. *)
  for u = 0 to n_procs - 1 do
    let p = Alloc.proc alloc u in
    let d = m.demands.(u) in
    let config = p.Alloc.config in
    if exceeds d.Demand.compute config.cpu.speed then
      add
        (Compute_overload
           { proc = u; load = d.Demand.compute; capacity = config.cpu.speed });
    let nic_load = m.plan_rates.(u) +. d.Demand.comm_in +. d.Demand.comm_out in
    if exceeds nic_load config.nic.bandwidth then
      add
        (Nic_overload
           { proc = u; load = nic_load; capacity = config.nic.bandwidth })
  done;
  (* Constraints (3) and (4), per server (and per server-processor
     link): one pass over the plans sums each link's load in plan order
     into [link.(l * n_procs + u)]; entries naming no server load
     nothing. *)
  let link = Array.make (n_servers * n_procs) 0.0 in
  for u = 0 to n_procs - 1 do
    List.iter
      (fun (k, l) ->
        if l >= 0 && l < n_servers then
          link.((l * n_procs) + u) <-
            link.((l * n_procs) + u) +. plan_rate g.Graph.objects k)
      (Alloc.downloads_of alloc u)
  done;
  for l = 0 to n_servers - 1 do
    let total = ref 0.0 in
    for u = 0 to n_procs - 1 do
      let link_load = link.((l * n_procs) + u) in
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
  if exceeds (comm_in_pair_bound m) platform.Platform.proc_link then
    proc_link_violations g platform alloc add;
  List.rev !acc

let check_measured m g platform alloc =
  structural_violations g platform alloc m
  @ capacity_violations g platform alloc m

let check_graph g platform alloc =
  check_measured (measure g alloc) g platform alloc

let check app platform alloc = check_graph (Graph.of_app app) platform alloc

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
