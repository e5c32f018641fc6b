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

(* Every processor's distinct needed object types, ascending: [stamp.(k)
   = u] marks the types already collected for [u]. *)
let distinct_objects g alloc =
  let stamp = Array.make (Objects.count g.Graph.objects) (-1) in
  let needed = Array.make (Alloc.n_procs alloc) [] in
  for u = 0 to Alloc.n_procs alloc - 1 do
    let acc = ref [] in
    let mark k =
      if stamp.(k) <> u then begin
        stamp.(k) <- u;
        acc := k :: !acc
      end
    in
    List.iter (fun i -> List.iter mark (Graph.leaves g i)) (Alloc.operators_of alloc u);
    needed.(u) <- List.sort Int.compare !acc
  done;
  needed

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

let rec comm_in_of g hosts ~unshared sums u c ps k = function
  | [] -> ()
  | j :: rest ->
    let r = charged_rate g hosts ~unshared ps k j (host hosts j) u c in
    if r > 0.0 then sums.(u) <- sums.(u) +. (r *. g.Graph.output.(j));
    comm_in_of g hosts ~unshared sums u c ps (k + 1) rest

(* [f u v c j] for every stream charged at consumer [c] on [u] from an
   assigned producer [j] on [v]. *)
let rec streams_into g hosts ~unshared f u c ps k = function
  | [] -> ()
  | j :: rest ->
    let v = host hosts j in
    if v >= 0 && charged_rate g hosts ~unshared ps k j v u c > 0.0 then f u v c j;
    streams_into g hosts ~unshared f u c ps (k + 1) rest

(* Placeholder for [demands]' result array; every slot is overwritten. *)
let no_demand = { Demand.compute = 0.0; download = 0.0; comm_in = 0.0; comm_out = 0.0 }

let demands g alloc ~needed_of =
  let { Graph.rates; rate_stride; work; output; objects; _ } = g in
  let n_procs = Alloc.n_procs alloc in
  let compute = Array.make n_procs 0.0 in
  let comm_in = Array.make n_procs 0.0 and comm_out = Array.make n_procs 0.0 in
  let hosts = Alloc.hosts alloc and unshared = Graph.unshared g in
  for i = 0 to Graph.n_nodes g - 1 do
    let u = host hosts i in
    if u >= 0 then begin
      compute.(u) <- compute.(u) +. (rates.(i * rate_stride) *. work.(i));
      let ps = Graph.producers g i in
      comm_in_of g hosts ~unshared comm_in u i ps 0 ps;
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
  let demand = Array.make n_procs no_demand in
  for u = 0 to n_procs - 1 do
    demand.(u) <-
      {
        Demand.compute = compute.(u);
        download =
          List.fold_left (fun acc k -> acc +. Objects.rate objects k) 0.0 needed_of.(u);
        comm_in = comm_in.(u);
        comm_out = comm_out.(u);
      }
  done;
  demand

let proc_demands g alloc = demands g alloc ~needed_of:(distinct_objects g alloc)

let proc_download_rate g alloc u =
  List.fold_left
    (fun acc (k, _) -> acc +. plan_rate g.Graph.objects k)
    0.0
    (Alloc.downloads_of alloc u)

let structural_violations g platform alloc ~needed_of =
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
   streams instead of probing all O(procs^2) pairs.  The sweep lists
   each consumer host's incoming streams in (consumer id, input slot)
   order; the host's flow from each neighbour [v] is then summed in
   that order into row [u] of a CSR table sorted by [v].  The
   transposed table lists each processor's outgoing flows by ascending
   destination, so merging row [a] with column [a] visits the pairs
   [(a, b)], [b > a], in ascending order and sums [into (a, b) +. into
   (b, a)].  Pairs no stream crosses carry zero flow and can never
   exceed the non-negative capacity. *)
let proc_link_violations g platform alloc add =
  let output = g.Graph.output in
  let n_procs = Alloc.n_procs alloc in
  let hosts = Alloc.hosts alloc in
  let sweep f =
    let unshared = Graph.unshared g in
    for c = 0 to Graph.n_nodes g - 1 do
      let u = host hosts c in
      if u >= 0 then begin
        let ps = Graph.producers g c in
        streams_into g hosts ~unshared f u c ps 0 ps
      end
    done
  in
  let row = Array.make (n_procs + 1) 0 in
  sweep (fun u _ _ _ -> row.(u + 1) <- row.(u + 1) + 1);
  for u = 0 to n_procs - 1 do
    row.(u + 1) <- row.(u + 1) + row.(u)
  done;
  let m = max 1 row.(n_procs) in
  let edge_v = Array.make m 0 and edge_w = Array.make m 0.0 in
  let fill = Array.sub row 0 n_procs in
  sweep (fun u v c j ->
      edge_v.(fill.(u)) <- v;
      edge_w.(fill.(u)) <-
        stream_rate g hosts ~unshared:(Graph.unshared g) j u c *. output.(j);
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

let capacity_violations g platform alloc ~needed_of =
  let servers = platform.Platform.servers in
  let objects = g.Graph.objects in
  let n_procs = Alloc.n_procs alloc in
  let demand = demands g alloc ~needed_of in
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
      proc_download_rate g alloc u +. d.Demand.comm_in +. d.Demand.comm_out
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
          (fun acc (k, l') -> if l' = l then acc +. plan_rate objects k else acc)
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
  proc_link_violations g platform alloc add;
  List.rev !acc

let check_graph g platform alloc =
  let needed_of = distinct_objects g alloc in
  structural_violations g platform alloc ~needed_of
  @ capacity_violations g platform alloc ~needed_of

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
