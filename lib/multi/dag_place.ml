module Catalog = Insp_platform.Catalog
module Platform = Insp_platform.Platform
module Alloc = Insp_mapping.Alloc
module Cost = Insp_mapping.Cost
module Server_select = Insp_heuristics.Server_select
module Downgrade = Insp_heuristics.Downgrade
module Demand = Insp_mapping.Demand
module Graph = Insp_tree.Graph
module Objects = Insp_tree.Objects

type outcome = { alloc : Alloc.t; cost : float; n_procs : int }

type failure =
  | Placement of string
  | Server_selection of string
  | Validation of string

let failure_message = function
  | Placement m -> "placement failed: " ^ m
  | Server_selection m -> "server selection failed: " ^ m
  | Validation m -> "validation failed: " ^ m

let tolerance = 1e-9
let leq v cap = v <= cap *. (1.0 +. tolerance) +. tolerance

(* ------------------------------------------------------------------ *)
(* Mutable placement state (the DAG analogue of Insp.Builder)          *)

(* [members] is kept sorted. *)
type group = { mutable members : int list; mutable cfg : Catalog.config }

type state = {
  dag : Dag.t;
  platform : Platform.t;
  groups : (int, group) Hashtbl.t;
  mutable order : int list;  (* reversed acquisition order *)
  mutable next_id : int;
  assign : int option array;
  (* Stamped node markers: a set is marked by writing a fresh [stamp]
     into its members' slots, so a probe clears no array and allocates
     none.  [in_a] holds the probed member set, [in_b] the group its
     flow is measured against. *)
  in_a : int array;
  in_b : int array;
  mutable stamp : int;
}

let create dag platform =
  let n = Dag.n_nodes dag in
  {
    dag;
    platform;
    groups = Hashtbl.create 32;
    order = [];
    next_id = 0;
    assign = Array.make n None;
    in_a = Array.make n 0;
    in_b = Array.make n 0;
    stamp = 0;
  }

let group_ids st = List.rev st.order
let members st gid = (Hashtbl.find st.groups gid).members

let rec stamp_all marks s = function
  | [] -> ()
  | i :: rest ->
    marks.(i) <- s;
    stamp_all marks s rest

let mark st marks nodes =
  st.stamp <- st.stamp + 1;
  stamp_all marks st.stamp nodes;
  st.stamp

(* Compute load of a sorted member list, summed in ascending order as in
   [Dag_check.group_demand]. *)
let rec compute_load dag acc = function
  | [] -> acc
  | i :: rest ->
    let n = Dag.node dag i in
    compute_load dag (acc +. (n.Dag.rate *. n.Dag.work)) rest

(* Most probes fail on compute alone, so the download and communication
   terms are only built once compute fits.  [s] marks [members] in
   [in_a]. *)
let demand_fits st config ~s members =
  leq (compute_load st.dag 0.0 members) config.Catalog.cpu.Catalog.speed
  &&
  let d =
    Dag_check.group_demand st.dag ~in_group:(fun i -> st.in_a.(i) = s) members
  in
  leq (Demand.nic d) config.Catalog.nic.Catalog.bandwidth

(* Flow between the member set [g] (marked [s] in [in_a]) and [h]: one
   stream per (producer, consuming set) at the fastest consuming rate. *)
let flow_between st ~s g h =
  let dag = st.dag in
  let sh = mark st st.in_b h in
  let one_way src marks stamp =
    List.fold_left
      (fun acc j ->
        let rate =
          List.fold_left
            (fun m c ->
              if marks.(c) = stamp then Float.max m (Dag.node dag c).Dag.rate
              else m)
            0.0 (Dag.consumers dag j)
        in
        acc +. ((Dag.node dag j).Dag.output *. rate))
      0.0 src
  in
  one_way g st.in_b sh +. one_way h st.in_a s

(* Groups reachable from [members] (marked [s] in [in_a]) through one
   stream edge, read off the assignment array.  Only these can carry
   flow towards [members]: every other group's flow is exactly 0.0.
   (DAG flow semantics — one stream per producer at the fastest
   consuming rate — keep exact incremental pair flows à la
   [Insp_mapping.Ledger] future work, so each probe recomputes the flow
   towards its adjacent groups.) *)
let adjacent_groups st ~s members ~ignore_groups =
  let adj = ref [] in
  let note i =
    if st.in_a.(i) <> s then
      match st.assign.(i) with
      | Some gid when (not (List.mem gid ignore_groups))
                      && not (List.mem gid !adj) ->
        adj := gid :: !adj
      | Some _ | None -> ()
  in
  List.iter
    (fun m ->
      List.iter
        (function Dag.Node j -> note j | Dag.Object _ -> ())
        (Dag.inputs st.dag m);
      List.iter note (Dag.consumers st.dag m))
    members;
  !adj

(* [members] must be sorted. *)
let can_host st ~config ~members ~ignore_groups =
  let s = mark st st.in_a members in
  demand_fits st config ~s members
  && List.for_all
       (fun gid ->
         leq
           (flow_between st ~s members (Hashtbl.find st.groups gid).members)
           st.platform.Platform.proc_link)
       (adjacent_groups st ~s members ~ignore_groups)

let acquire st ~config ~members =
  let members = List.sort compare members in
  if can_host st ~config ~members ~ignore_groups:[] then begin
    let gid = st.next_id in
    st.next_id <- st.next_id + 1;
    Hashtbl.replace st.groups gid { members; cfg = config };
    st.order <- gid :: st.order;
    List.iter (fun i -> st.assign.(i) <- Some gid) members;
    Some gid
  end
  else None

let sell st gid =
  let g = Hashtbl.find st.groups gid in
  List.iter (fun i -> st.assign.(i) <- None) g.members;
  Hashtbl.remove st.groups gid;
  st.order <- List.filter (fun id -> id <> gid) st.order

let try_add st gid node =
  let g = Hashtbl.find st.groups gid in
  let candidate = List.merge compare [ node ] g.members in
  if can_host st ~config:g.cfg ~members:candidate ~ignore_groups:[ gid ]
  then begin
    g.members <- candidate;
    st.assign.(node) <- Some gid;
    true
  end
  else false

let try_absorb st winner loser =
  let gw = Hashtbl.find st.groups winner in
  let gl = Hashtbl.find st.groups loser in
  let candidate = List.merge compare gw.members gl.members in
  if
    can_host st ~config:gw.cfg ~members:candidate
      ~ignore_groups:[ winner; loser ]
  then begin
    let absorbed = gl.members in
    sell st loser;
    gw.members <- candidate;
    List.iter (fun i -> st.assign.(i) <- Some winner) absorbed;
    true
  end
  else false

(* ------------------------------------------------------------------ *)
(* SBU-style placement                                                 *)

(* Depth of a node = longest path to any sink (roots have depth 0). *)
let depths dag =
  let n = Dag.n_nodes dag in
  let depth = Array.make n 0 in
  (* ids are topological: consumers have higher ids; walk down. *)
  for i = n - 1 downto 0 do
    List.iter
      (function
        | Dag.Node j -> depth.(j) <- max depth.(j) (depth.(i) + 1)
        | Dag.Object _ -> ())
      (Dag.inputs dag i)
  done;
  depth

let absorb_consumers st gid =
  let dag = st.dag in
  let progressed = ref false in
  let rec pass () =
    let changed =
      List.exists
        (fun m ->
          List.exists
            (fun c ->
              match st.assign.(c) with
              | None -> try_add st gid c
              | Some other when other <> gid -> try_absorb st gid other
              | Some _ -> false)
            (Dag.consumers dag m))
        (members st gid)
    in
    if changed then begin
      progressed := true;
      pass ()
    end
  in
  pass ();
  !progressed

(* Iterative grouping fallback: grow the member set along its heaviest
   stream edge until a processor can host it. *)
let acquire_with_grouping st node =
  let dag = st.dag in
  let best_cfg = Catalog.best st.platform.Platform.catalog in
  let heaviest_neighbor members =
    let in_set i = List.mem i members in
    let best = ref None in
    let consider cand w =
      match !best with
      | Some (_, bw) when bw >= w -> ()
      | Some _ | None -> best := Some (cand, w)
    in
    List.iter
      (fun m ->
        let nm = Dag.node dag m in
        List.iter
          (function
            | Dag.Node j when not (in_set j) ->
              consider j ((Dag.node dag j).Dag.output *. nm.Dag.rate)
            | Dag.Node _ | Dag.Object _ -> ())
          nm.Dag.inputs;
        List.iter
          (fun c ->
            if not (in_set c) then
              consider c (nm.Dag.output *. (Dag.node dag c).Dag.rate))
          (Dag.consumers dag m))
      members;
    Option.map fst !best
  in
  let rec grow members rounds =
    match acquire st ~config:best_cfg ~members with
    | Some gid -> Ok gid
    | None ->
      if rounds <= 0 then
        Error
          (Printf.sprintf "no processor can host nodes {%s}"
             (String.concat ", " (List.map string_of_int members)))
      else (
        match heaviest_neighbor members with
        | None -> Error "isolated node fits no processor"
        | Some nb ->
          (match st.assign.(nb) with
          | Some gid -> sell st gid
          | None -> ());
          grow (nb :: members) (rounds - 1))
  in
  grow [ node ] 8

(* Fold small groups into others, smallest first.  Each loser tries its
   flow-adjacent groups before the rest, both in acquisition (ascending
   id) order; the adjacent ones are read off the loser's edges. *)
let consolidate st =
  let rec pass () =
    let by_size =
      List.sort
        (fun a b ->
          compare (List.length (members st a)) (List.length (members st b)))
        (group_ids st)
    in
    let merged =
      List.exists
        (fun loser ->
          Hashtbl.mem st.groups loser
          &&
          let lm = members st loser in
          let s = mark st st.in_a lm in
          let adj =
            adjacent_groups st ~s lm ~ignore_groups:[]
            |> List.filter (fun g -> flow_between st ~s lm (members st g) > 0.0)
            |> List.sort compare
          in
          let rest =
            List.filter
              (fun g -> g <> loser && not (List.mem g adj))
              (group_ids st)
          in
          List.exists (fun winner -> try_absorb st winner loser) (adj @ rest))
        by_size
    in
    if merged then pass ()
  in
  pass ()

let place dag platform =
  let st = create dag platform in
  let best_cfg = Catalog.best platform.Platform.catalog in
  let depth = depths dag in
  let al_nodes =
    List.filter (Dag.is_al_node dag) (Dag.topological dag)
    |> List.sort (fun a b ->
           let c = compare depth.(b) depth.(a) in
           if c <> 0 then c else compare a b)
  in
  let rec seed = function
    | [] -> Ok ()
    | node :: rest ->
      if st.assign.(node) <> None then seed rest
      else (
        match acquire st ~config:best_cfg ~members:[ node ] with
        | Some _ -> seed rest
        | None -> (
          match acquire_with_grouping st node with
          | Ok _ -> seed rest
          | Error e -> Error e))
  in
  match seed al_nodes with
  | Error e -> Error e
  | Ok () ->
    (* bottom-up merge rounds *)
    let deepest gid =
      List.fold_left (fun acc m -> max acc depth.(m)) 0 (members st gid)
    in
    let rec merge_rounds () =
      let by_depth =
        List.sort (fun a b -> compare (deepest b) (deepest a)) (group_ids st)
      in
      let changed =
        List.fold_left
          (fun acc gid ->
            if Hashtbl.mem st.groups gid then absorb_consumers st gid || acc
            else acc)
          false by_depth
      in
      if changed then merge_rounds ()
    in
    merge_rounds ();
    (* leftovers, inputs before consumers, bounded against oscillation *)
    let budget = ref ((Dag.n_nodes dag * Dag.n_nodes dag) + 16) in
    let rec leftovers () =
      match
        List.filter (fun i -> st.assign.(i) = None) (Dag.topological dag)
      with
      | [] ->
        consolidate st;
        Ok ()
      | node :: _ ->
        decr budget;
        if !budget <= 0 then Error "placement did not converge"
        else begin
          let input_groups =
            List.filter_map
              (function
                | Dag.Node j -> st.assign.(j)
                | Dag.Object _ -> None)
              (Dag.inputs dag node)
            |> List.sort_uniq compare
          in
          let hosted = List.exists (fun gid -> try_add st gid node) input_groups in
          if hosted then leftovers ()
          else
            match acquire_with_grouping st node with
            | Ok gid ->
              ignore (absorb_consumers st gid);
              leftovers ()
            | Error e -> Error e
        end
    in
    (match leftovers () with
    | Error e -> Error e
    | Ok () ->
      let ids = group_ids st in
      let groups = Array.of_list (List.map (members st) ids) in
      let configs =
        Array.of_list
          (List.map (fun gid -> (Hashtbl.find st.groups gid).cfg) ids)
      in
      Ok (groups, configs))

(* ------------------------------------------------------------------ *)
(* Full pipeline                                                       *)

let run dag platform =
  match place dag platform with
  | Error e -> Error (Placement e)
  | Ok (groups, configs) -> (
    let graph = Dag.graph dag in
    let needs =
      Array.to_list
        (Array.mapi
           (fun u g -> List.map (fun k -> (u, k)) (Graph.distinct_objects graph g))
           groups)
      |> List.concat
    in
    match
      Server_select.sophisticated_generic ~n_groups:(Array.length groups)
        ~rate:(Objects.rate (Dag.objects dag))
        ~servers:platform.Platform.servers
        ~server_link:platform.Platform.server_link ~needs
    with
    | Error e -> Error (Server_selection e)
    | Ok downloads -> (
      let alloc = Alloc.of_groups ~configs ~groups ~downloads in
      let alloc = Downgrade.run_graph graph platform alloc in
      match Dag_check.check dag platform alloc with
      | [] ->
        Ok
          {
            alloc;
            cost = Cost.of_alloc platform.Platform.catalog alloc;
            n_procs = Alloc.n_procs alloc;
          }
      | violations ->
        Error (Validation (Insp_mapping.Check.explain violations))))
