module Catalog = Insp_platform.Catalog
module Platform = Insp_platform.Platform
module Alloc = Insp_mapping.Alloc
module Check = Insp_mapping.Check
module Demand = Insp_mapping.Demand
module Obs = Insp_obs.Obs
module Journal = Insp_obs.Journal

let run_measured m platform alloc =
  let catalog = platform.Platform.catalog in
  let n = Alloc.n_procs alloc in
  (* A processor's demand and download rate depend only on its operator
     group and download plan, never on any configuration, so the
     per-processor decisions are independent: collect them into one
     array and rebuild the allocation with a single structural copy
     instead of one O(procs) copy per step.  Journal events and counters
     fire in the same per-processor order as the stepwise version. *)
  let chosen = Array.init n (fun u -> (Alloc.proc alloc u).Alloc.config) in
  for u = 0 to n - 1 do
    Obs.incr "heur.downgrade.step";
    let d = m.Check.demands.(u) in
    let nic_load = m.Check.plan_rates.(u) +. d.Demand.comm_in +. d.Demand.comm_out in
    match
      Catalog.cheapest_satisfying catalog ~speed:d.Demand.compute
        ~bandwidth:nic_load
    with
    | Some config ->
      Obs.incr "heur.downgrade.fitted";
      if Obs.journaling () then begin
        (* Labels, not float fields, decide "changed" — string
           equality keeps float comparison out of the decision. *)
        let from_config = Catalog.label chosen.(u) in
        let to_config = Catalog.label config in
        if not (String.equal from_config to_config) then
          Obs.event (Journal.Downgrade { proc = u; from_config; to_config })
      end;
      chosen.(u) <- config
    | None ->
      (* keep the provisioned config; checker will flag *)
      if Obs.decide Journal.Stuck then
        Obs.event
          (Journal.Downgrade_stuck
             { proc = u; config = Catalog.label chosen.(u) })
  done;
  Alloc.with_configs alloc chosen

let run app platform alloc =
  run_measured (Check.measure (Insp_tree.Graph.of_app app) alloc) platform alloc
