module Graph = Insp_tree.Graph
module Platform = Insp_platform.Platform
module Servers = Insp_platform.Servers
module Alloc = Insp_mapping.Alloc
module Check = Insp_mapping.Check
module Cost = Insp_mapping.Cost
module Solve = Insp_heuristics.Solve
module Runtime = Insp_sim.Runtime
module Obs = Insp_obs.Obs
module Journal = Insp_obs.Journal

type spec = {
  max_procs : int option;
  allow_rebuy : bool;
  measure : bool;
  heuristic : Solve.heuristic;
}

(* Repair downtime: detection latency per repair, plus a charge per
   migrated operator and per rebought processor (seconds). *)
let detect_s = 1.0
let migrate_s = 0.5
let provision_s = 5.0

(* Post-restoration DES observation window of a measured capacity
   fault (seconds). *)
let slice_s = 10.0

let make_spec ?max_procs ?(allow_rebuy = true) ?(measure = true)
    ?(heuristic = Solve.sbu) () =
  { max_procs; allow_rebuy; measure; heuristic }

type episode = {
  ep_t : float;
  ep_label : string;
  ep_downtime : float;
  ep_cost : float;
  ep_migrations : int;
  ep_rebuys : int;
  ep_dip : float option;
  ep_recovery : float option;
}

type report = {
  episodes : episode list;
  total_downtime : float;
  total_realloc_cost : float;
  final_cost : float;
  final_procs : int;
  worst_dip : float option;
  infeasible_at : float option;
  n_crashes : int;
  n_capacity : int;
  n_rho : int;
}

let one_line s = String.map (fun c -> if c = '\n' then ' ' else c) s

(* Raw generator draws are reduced against the *current* topology: the
   processor count changes as repairs rebuy or shed processors. *)
let normalize alloc platform fault =
  let n = Alloc.n_procs alloc in
  let n_srv = Servers.n_servers platform.Platform.servers in
  match fault with
  | Scenario.Proc_crash { victim } ->
    Scenario.Proc_crash { victim = victim mod n }
  | Scenario.Link_degrade { a; b; factor; duration } ->
    Scenario.Link_degrade { a = a mod n; b = b mod n; factor; duration }
  | Scenario.Server_outage { server; duration } ->
    Scenario.Server_outage { server = server mod n_srv; duration }
  | Scenario.Card_jitter { proc; factor; duration } ->
    Scenario.Card_jitter { proc = proc mod n; factor; duration }
  | Scenario.Rho_demand _ as f -> f

(* A full server outage is modelled as 5% residual capacity rather than
   a hard zero: flows keep draining (slowly), so the DES horizon always
   terminates. *)
let outage_factor = 0.05

let runtime_scope fault =
  match fault with
  | Scenario.Link_degrade { a; b; factor; duration } ->
    if a = b then None
    else Some (Runtime.Proc_link (a, b), factor, duration)
  | Scenario.Server_outage { server; duration } ->
    Some (Runtime.Server_card server, outage_factor, duration)
  | Scenario.Card_jitter { proc; factor; duration } ->
    Some (Runtime.Proc_card proc, factor, duration)
  | Scenario.Proc_crash _ | Scenario.Rho_demand _ -> None

(* Bucketed root-completion throughput around a disruption window:
   [dip] is the worst bucket inside the window, normalized to rho;
   [recovery] is how long after restoration the first >= 90% bucket
   appears.  Buckets are sized so a nominal bucket holds ~2 results. *)
let dip_and_recovery ~rho ~from_t ~until_t ~horizon times =
  let w = Float.max 1.0 (2.0 /. rho) in
  let nb = max 1 (int_of_float (Float.ceil (horizon /. w))) in
  let buckets = Array.make nb 0 in
  Array.iter
    (fun t ->
      let i = int_of_float (t /. w) in
      if i >= 0 && i < nb then buckets.(i) <- buckets.(i) + 1)
    times;
  let norm i = float_of_int buckets.(i) /. (w *. rho) in
  let b0 = max 0 (int_of_float (from_t /. w)) in
  let b1 = min (nb - 1) (int_of_float (until_t /. w)) in
  let dip = ref infinity in
  for i = b0 to b1 do
    dip := Float.min !dip (norm i)
  done;
  let dip = if !dip = infinity then None else Some !dip in
  let rec find i =
    if i >= nb then None
    else if norm i >= 0.9 then
      Some (Float.max 0.0 ((float_of_int i *. w) -. until_t))
    else find (i + 1)
  in
  (dip, find (max 0 (int_of_float (Float.ceil (until_t /. w)))))

(* The target throughput of a view: the rate of its first root. *)
let target_rate g = Graph.rate g g.Graph.roots.(0)

let run spec g0 platform alloc0 timeline =
  let catalog = platform.Platform.catalog in
  let rho0 = target_rate g0 in
  let g = ref g0 in
  let alloc = ref alloc0 in
  let episodes = ref [] in
  let infeasible_at = ref None in
  let n_crashes = ref 0 and n_capacity = ref 0 and n_rho = ref 0 in
  let push ep = episodes := ep :: !episodes in
  let blank at label =
    { ep_t = at; ep_label = label; ep_downtime = 0.0; ep_cost = 0.0;
      ep_migrations = 0; ep_rebuys = 0; ep_dip = None; ep_recovery = None }
  in
  (* A repair or redeploy done at [at]: its downtime, journal record and
     episode. *)
  let repaired at label next ~cost ~migrations ~rebuys =
    alloc := next;
    let downtime =
      detect_s
      +. (migrate_s *. float_of_int migrations)
      +. (provision_s *. float_of_int rebuys)
    in
    if Obs.journaling () then
      Obs.event
        (Journal.Repair_done { t = at; cost; migrations; rebuys; downtime });
    push
      { (blank at label) with ep_downtime = downtime; ep_cost = cost;
        ep_migrations = migrations; ep_rebuys = rebuys }
  in
  let infeasible at reason =
    if Obs.journaling () then
      Obs.event (Journal.Repair_infeasible { t = at; reason });
    infeasible_at := Some at
  in
  let crash at victim =
    incr n_crashes;
    if Obs.decide Journal.Crashed then
      Obs.event (Journal.Fault_crash { t = at; victim });
    match
      Repair.run ?max_procs:spec.max_procs ~allow_rebuy:spec.allow_rebuy !g
        platform !alloc ~failed:[ victim ]
    with
    | Ok o ->
      repaired at (Printf.sprintf "crash:%d" victim) o.Repair.alloc
        ~cost:o.Repair.realloc_cost ~migrations:o.Repair.migrations
        ~rebuys:o.Repair.rebuys
    | Error reason -> infeasible at (one_line reason)
  in
  let rho_shift at factor =
    incr n_rho;
    let rho = rho0 *. factor in
    if Obs.decide Journal.Rho_shifted then
      Obs.event (Journal.Fault_rho { t = at; factor; rho });
    g := Graph.scale_rates g0 factor;
    if Check.check_graph !g platform !alloc = [] then push (blank at "rho")
    else begin
      (* The deployed mapping no longer sustains the new demand: redeploy
         from scratch (sell old, buy new) with the spec's heuristic. *)
      let old_cost = Cost.of_alloc catalog !alloc in
      match
        Obs.quietly (fun () ->
            Solve.run_graph ~seed:0 spec.heuristic !g platform)
      with
      | Ok o ->
        repaired at "rho:redeploy" o.Solve.alloc
          ~cost:(o.Solve.cost -. old_cost) ~migrations:(Graph.n_nodes !g)
          ~rebuys:0
      | Error f -> infeasible at (Solve.failure_message f)
    end
  in
  let capacity at fault factor duration =
    incr n_capacity;
    let label = Scenario.scope_label fault in
    if Obs.decide Journal.Capacity_changed then
      Obs.event (Journal.Fault_capacity { t = at; scope = label; factor; duration });
    let dip, recovery =
      if not spec.measure then (None, None)
      else
        match runtime_scope fault with
        | None -> (None, None)
        | Some (scope, d_factor, duration) ->
          let settle = 4.0 in
          let horizon = settle +. duration +. slice_s in
          let d =
            { Runtime.d_scope = scope; d_from = settle;
              d_until = settle +. duration; d_factor }
          in
          let rep =
            Obs.quietly (fun () ->
                Runtime.run_graph ~horizon ~disruptions:[ d ] !g platform
                  !alloc)
          in
          dip_and_recovery ~rho:(target_rate !g) ~from_t:settle
            ~until_t:(settle +. duration) ~horizon
            rep.Runtime.root_completions
    in
    push { (blank at label) with ep_dip = dip; ep_recovery = recovery }
  in
  let handle { Scenario.at; fault } =
    match normalize !alloc platform fault with
    | Scenario.Proc_crash { victim } -> crash at victim
    | Scenario.Rho_demand { factor } -> rho_shift at factor
    | Scenario.Link_degrade { factor; duration; _ } as f ->
      capacity at f factor duration
    | Scenario.Server_outage { duration; _ } as f ->
      capacity at f outage_factor duration
    | Scenario.Card_jitter { factor; duration; _ } as f ->
      capacity at f factor duration
  in
  let rec walk = function
    | [] -> ()
    | ev :: rest ->
      if !infeasible_at = None then begin
        handle ev;
        walk rest
      end
  in
  walk timeline;
  let episodes = List.rev !episodes in
  let worst_dip =
    List.fold_left
      (fun acc ep ->
        match (acc, ep.ep_dip) with
        | None, d -> d
        | d, None -> d
        | Some a, Some b -> Some (Float.min a b))
      None episodes
  in
  {
    episodes;
    total_downtime = List.fold_left (fun s e -> s +. e.ep_downtime) 0.0 episodes;
    total_realloc_cost = List.fold_left (fun s e -> s +. e.ep_cost) 0.0 episodes;
    final_cost = Cost.of_alloc catalog !alloc;
    final_procs = Alloc.n_procs !alloc;
    worst_dip;
    infeasible_at = !infeasible_at;
    n_crashes = !n_crashes;
    n_capacity = !n_capacity;
    n_rho = !n_rho;
  }

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>episodes: %d (%d crash, %d capacity, %d rho)@,\
     total downtime: %.1f s@,\
     re-allocation cost: $%.0f@,\
     final platform: %d processors, $%.0f@,"
    (List.length r.episodes) r.n_crashes r.n_capacity r.n_rho r.total_downtime
    r.total_realloc_cost r.final_procs r.final_cost;
  (match r.worst_dip with
  | Some d -> Format.fprintf ppf "worst throughput dip: %.0f%% of rho@," (100.0 *. d)
  | None -> ());
  (match r.infeasible_at with
  | Some t -> Format.fprintf ppf "INFEASIBLE at t=%.1f@," t
  | None -> ());
  Format.fprintf ppf "@]"
