module Graph = Insp_tree.Graph
module Catalog = Insp_platform.Catalog
module Platform = Insp_platform.Platform
module Demand = Insp_mapping.Demand
module Ledger = Insp_mapping.Ledger
module Obs = Insp_obs.Obs
module Journal = Insp_obs.Journal

(* Every feasibility probe reports to the observability sink as one
   decision (DESIGN.md §10): a verdict alone counts "heur.probe" plus its
   outcome ("heur.probe.hit"/".miss"); a verdict that decides an add or
   a merge also counts that outcome, so probe complexity and ledger
   acceptance rates are visible per run.  With no sink installed these
   are no-ops. *)
let probed ok = if ok then Journal.Probe_ok else Journal.Probe_rejected

type group_id = int

(* Groups live in the ledger: one ledger processor per group.  The
   builder only adds the probe/commit discipline on top; ledger ids are
   handed out in increasing order and never reused, so the ascending
   live ids are the acquisition order.  All feasibility probes are
   incremental — O(degree) per probed operator — instead of recomputing
   [Demand.of_group] (O(|group|²)) and pairwise flows against every
   group (O(P·|group|)) per probe. *)
type t = {
  graph : Graph.t;
  platform : Platform.t;
  ledger : Ledger.t;
}

let create graph platform =
  { graph; platform; ledger = Ledger.create graph platform }

let graph t = t.graph
let platform t = t.platform
let ledger t = t.ledger

let group_ids t = Ledger.proc_ids t.ledger

let check_live t gid =
  if not (Ledger.mem_proc t.ledger gid) then
    invalid_arg "Builder: dead group id"

let members t gid =
  check_live t gid;
  Ledger.operators_of t.ledger gid

let config t gid =
  check_live t gid;
  Ledger.config t.ledger gid

let assignment t i = Ledger.assignment t.ledger i

let unassigned t =
  let acc = ref [] in
  for i = Graph.n_nodes t.graph - 1 downto 0 do
    if Ledger.assignment t.ledger i = None then acc := i :: !acc
  done;
  !acc

let all_assigned t =
  let n = Graph.n_nodes t.graph in
  let rec go i = i >= n || (Ledger.assignment t.ledger i <> None && go (i + 1)) in
  go 0

let tolerance = 1e-9
let leq value capacity = value <= (capacity *. (1.0 +. tolerance)) +. tolerance

let rec flows_ok t = function
  | [] -> true
  | (_, f) :: rest -> leq f t.platform.Platform.proc_link && flows_ok t rest

(* Probe verdict with the rejection reason: demand first, flows only
   when demand fits. *)
let probe_verdict t config (probe : Ledger.probe) =
  if not (Demand.fits config probe.Ledger.demand) then
    (false, Some Journal.Demand_exceeded)
  else if not (flows_ok t probe.Ledger.pair_flows) then
    (false, Some Journal.Link_exceeded)
  else (true, None)

(* What [candidate_flows] accumulates: the flow towards each adjacent
   group, an assoc list. *)
type flows = { b : t; members : int list; mutable acc : (group_id * float) list }

(* Pairwise flows of a hypothetical member set towards existing groups,
   grouped by group: one stream per (producer, consuming group), at the
   fastest consumer there.  Only groups adjacent to [members] through a
   graph edge can carry flow, so only those are visited.  On a tree,
   the closures' sizes and the boxed floats are what
   test/alloc_counts.golden pins. *)
let candidate_flows t ~members =
  let st = { b = t; members; acc = [] } in
  (* lint: allow p3 — the delta assoc list holds the O(degree) groups
     adjacent to [members], never all live groups *)
  let bump v w =
    let prev = Option.value ~default:0.0 (List.assoc_opt v st.acc) in
    st.acc <- (v, prev +. w) :: List.remove_assoc v st.acc
  [@@lint.allow "p3"]
  in
  List.iter
    (fun m ->
      (* a producer's stream, charged at its fastest member consumer *)
      let g = st.b.graph and led = st.b.ledger in
      for k = 0 to Graph.n_producers g m - 1 do
        let j = Graph.producer g m k in
        if not (Graph.read_before g m j k) then
          match Ledger.assignment led j with
          | Some v
            when Graph.n_consumers g j = 1
                 || Graph.fastest g j (fun c -> List.mem c st.members) = m ->
            bump v (Graph.rate g m *. g.Graph.output.(j))
          | Some _ | None -> ()
      done;
      (* [m]'s stream to a group, charged at its fastest consumer there *)
      for k = 0 to Graph.n_consumers g m - 1 do
        let c = Graph.consumer g m k in
        match Ledger.assignment led c with
        | Some v as host
          when Graph.n_consumers g m = 1
               || Graph.fastest g m (fun c' -> Ledger.assignment led c' = host) = c ->
          bump v (Graph.rate g c *. g.Graph.output.(m))
        | Some _ | None -> ()
      done)
    members;
  st.acc

(* The probe/commit wrappers below carry "ledger."-tier profiling
   frames (Obs.prof_enter/prof_exit, free without a profiling sink):
   they ARE the commit path, and the from-scratch demand/flow work they
   do around the ledger calls would otherwise surface as anonymous
   phase self-allocation in prof reports (DESIGN.md §17). *)

(* The first configuration of [configs] (the catalog, cheapest first,
   so bounded by the config count) that meets [demand]. *)
let rec first_fit demand = function
  | [] -> Error Journal.No_config
  | cfg :: rest ->
    if Demand.fits cfg demand then Ok cfg else first_fit demand rest

let cheapest_config t demand =
  first_fit demand (Catalog.configs t.platform.Platform.catalog)

let check_unassigned t members =
  List.iter
    (fun i ->
      if Ledger.assignment t.ledger i <> None then
        invalid_arg "Builder.acquire: operator already assigned")
    members

(* A purchase probe asks whether a new processor can host [members]:
   [acquire] tests a given configuration, demand first and flows only
   when demand fits (a "host" probe); [acquire_cheapest] tests the
   config-independent flows first, then computes the group's demand and
   scans the catalog for the cheapest configuration that fits (a
   "catalog" probe).  [purchase] counts and journals the verdict, closes
   the probe's profiler frame and buys on success: one probe and one
   decision per purchase.  A refusal returns the journaled reason; the
   caller words it if it reaches the user. *)
let purchase t ~kind ~members verdict =
  let ok = Result.is_ok verdict in
  if Obs.decide (probed ok) then
    Obs.event
      (Journal.Probe
         { kind; ops = members; ok;
           reject = (match verdict with Ok _ -> None | Error r -> Some r) });
  Obs.prof_exit ();
  match verdict with
  | Error _ as e -> e
  | Ok config ->
    Obs.prof_enter "ledger.acquire";
    let gid = Ledger.add_proc t.ledger config in
    List.iter (fun i -> Ledger.add_operator t.ledger gid i) members;
    if Obs.decide Journal.Acquired then
      Obs.event
        (Journal.Acquire { gid; config = Catalog.label config; members });
    Obs.prof_exit ();
    Ok gid

let acquire t ~config ~members =
  check_unassigned t members;
  Obs.prof_enter "ledger.probe_host";
  purchase t ~kind:Journal.Host ~members
    (if not (Demand.fits config (Demand.of_group t.graph members)) then
       Error Journal.Demand_exceeded
     else if not (flows_ok t (candidate_flows t ~members)) then
       Error Journal.Link_exceeded
     else Ok config)

let acquire_cheapest t ~members =
  check_unassigned t members;
  Obs.prof_enter "ledger.catalog_scan";
  purchase t ~kind:Journal.Catalog_scan ~members
    (if not (flows_ok t (candidate_flows t ~members)) then
       Error Journal.Link_exceeded
     else cheapest_config t (Demand.of_group t.graph members))

let try_add t gid op =
  if Ledger.assignment t.ledger op <> None then
    invalid_arg "Builder.try_add: operator already assigned";
  check_live t gid;
  Obs.prof_enter "ledger.try_add";
  let ok, reject =
    (* The probe tests the would-be compute load first, and most
       candidates fail there: answer those from the group's load and the
       operator's compute term alone, without the probe, with the same
       verdict. *)
    if not (Ledger.add_fits_cpu t.ledger gid op) then
      (false, Some Journal.Demand_exceeded)
    else
      probe_verdict t (Ledger.config t.ledger gid) (Ledger.probe_add t.ledger gid op)
  in
  if Obs.decide (if ok then Journal.Added else Journal.Add_rejected) then
    Obs.event
      (match reject with
      | None -> Journal.Add_op { gid; op; upgrade = None }
      | Some reject -> Journal.Reject_add { gid; op; reject });
  if ok then Ledger.add_operator t.ledger gid op;
  Obs.prof_exit ();
  ok

let sell t gid =
  check_live t gid;
  Ledger.remove_proc t.ledger gid;
  if Obs.decide Journal.Sold then Obs.event (Journal.Sell { gid })

let try_absorb t winner loser =
  if winner = loser then invalid_arg "Builder.try_absorb: same group";
  check_live t winner;
  check_live t loser;
  Obs.prof_enter "ledger.try_absorb";
  let ok, reject =
    (* The probe tests the merged compute load first, and most
       consolidation candidates fail there: answer those from the two
       loads alone, without the merge probe, with the same verdict. *)
    if not (Ledger.merge_fits_cpu t.ledger ~winner ~loser) then
      (false, Some Journal.Demand_exceeded)
    else
      probe_verdict t (Ledger.config t.ledger winner)
        (Ledger.probe_merge t.ledger ~winner ~loser)
  in
  if Obs.decide (if ok then Journal.Merged else Journal.Merge_rejected) then
    Obs.event
      (match reject with
      | None -> Journal.Merge_groups { winner; loser; upgrade = None }
      | Some reject -> Journal.Reject_merge { winner; loser; reject });
  if ok then Ledger.merge t.ledger ~winner ~loser;
  Obs.prof_exit ();
  ok

(* The cheapest configuration hosting the probed group, or the reason
   there is none (for the journal); the caller counts the decision. *)
let cheapest_for t probe =
  if not (flows_ok t probe.Ledger.pair_flows) then Error Journal.Link_exceeded
  else cheapest_config t probe.Ledger.demand

let try_add_upgrade t gid op =
  if Ledger.assignment t.ledger op <> None then
    invalid_arg "Builder.try_add_upgrade: operator already assigned";
  check_live t gid;
  let probe = Ledger.probe_add t.ledger gid op in
  match cheapest_for t probe with
  | Error reject ->
    if Obs.decide Journal.Add_rejected then
      Obs.event (Journal.Reject_add { gid; op; reject });
    false
  | Ok cfg ->
    Ledger.add_operator t.ledger gid op;
    Ledger.set_config t.ledger gid cfg;
    if Obs.decide Journal.Added then
      Obs.event
        (Journal.Add_op { gid; op; upgrade = Some (Catalog.label cfg) });
    true

let try_absorb_upgrade t winner loser =
  if winner = loser then invalid_arg "Builder.try_absorb_upgrade: same group";
  check_live t winner;
  check_live t loser;
  let probe = Ledger.probe_merge t.ledger ~winner ~loser in
  match cheapest_for t probe with
  | Error reject ->
    if Obs.decide Journal.Merge_rejected then
      Obs.event (Journal.Reject_merge { winner; loser; reject });
    false
  | Ok cfg ->
    Ledger.merge t.ledger ~winner ~loser;
    Ledger.set_config t.ledger winner cfg;
    if Obs.decide Journal.Merged then
      Obs.event
        (Journal.Merge_groups
           { winner; loser; upgrade = Some (Catalog.label cfg) });
    true

let finalize t =
  if not (all_assigned t) then
    Error "placement incomplete: some operators remain unassigned"
  else begin
    let ids = group_ids t in
    let groups = Array.of_list (List.map (members t) ids) in
    let configs = Array.of_list (List.map (config t) ids) in
    Array.iter
      (fun g ->
        Obs.observe "heur.group.size" (float_of_int (List.length g)))
      groups;
    Ok (groups, configs)
  end
