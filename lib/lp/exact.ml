module Graph = Insp_tree.Graph
module Catalog = Insp_platform.Catalog
module Platform = Insp_platform.Platform
module Alloc = Insp_mapping.Alloc
module Check = Insp_mapping.Check
module Demand = Insp_mapping.Demand
module Ledger = Insp_mapping.Ledger
module Builder = Insp_heuristics.Builder
module Server_select = Insp_heuristics.Server_select
module Obs = Insp_obs.Obs
module Journal = Insp_obs.Journal

type result = {
  n_procs : int;
  cost : float;
  alloc : Alloc.t;
  proven : bool;
  nodes : int;
}

let ceil_div x y = int_of_float (Float.ceil (x /. y -. 1e-9))

(* Preorder from the roots over producers in slot order, each node at
   its first visit; on a tree, the ids in order. *)
let preorder g =
  let n = Graph.n_nodes g in
  let seen = Array.make n false and order = ref [] in
  let rec visit i =
    if not seen.(i) then begin
      seen.(i) <- true;
      order := i :: !order;
      List.iter visit (Graph.producers g i)
    end
  in
  List.iter visit (Array.to_list g.Graph.roots @ List.init n Fun.id);
  Array.of_list (List.rev !order)

let solve ?(node_limit = 2_000_000) g platform =
  let catalog = platform.Platform.catalog in
  if not (Catalog.is_homogeneous catalog) then
    Error "Exact.solve: platform must be homogeneous (CONSTR-HOM)"
  else begin
    let config = Catalog.cheapest catalog in
    let speed = config.Catalog.cpu.Catalog.speed in
    let proc_cost = Catalog.config_cost catalog config in
    let proc_link = platform.Platform.proc_link in
    let n = Graph.n_nodes g in
    let order = preorder g in
    (* Suffix sums of remaining work along the assignment order, for the
       compute-based bound. *)
    let remaining = Array.make (n + 1) 0.0 in
    for pos = n - 1 downto 0 do
      remaining.(pos) <-
        remaining.(pos + 1) +. (Graph.rate g order.(pos) *. g.Graph.work.(order.(pos)))
    done;
    (* Processor u is group u; the open groups are 0 .. n_used - 1. *)
    let ledger = Ledger.create g platform in
    for _ = 1 to n do
      ignore (Ledger.add_proc ledger config)
    done;
    let best : result option ref = ref None in
    let nodes = ref 0 in
    let truncated = ref false in
    let fits op u =
      Ledger.add_fits_cpu ledger u op
      &&
      let p = Ledger.probe_add ledger u op in
      Demand.fits config p.Ledger.demand
      && List.for_all (fun (_, f) -> Builder.leq f proc_link) p.Ledger.pair_flows
    in
    let try_complete n_used =
      let groups = Array.init n_used (Ledger.operators_of ledger) in
      match Server_select.sophisticated_graph g platform ~groups with
      | Error _ -> ()
      | Ok downloads ->
        let alloc =
          Alloc.of_groups ~configs:(Array.make n_used config) ~groups ~downloads
        in
        if Check.check_graph g platform alloc = [] then begin
          let cost = float_of_int n_used *. proc_cost in
          match !best with
          | Some b when b.cost <= cost -> ()
          | _ ->
            Obs.gauge "lp.exact.incumbent" (float_of_int n_used);
            if Obs.journaling () then
              Obs.event_bounded ~category:"lp"
                (Journal.Exact_incumbent { n_procs = n_used; nodes = !nodes });
            best :=
              Some { n_procs = n_used; cost; alloc; proven = false; nodes = !nodes }
        end
    in
    let best_procs () =
      match !best with Some b -> b.n_procs | None -> n + 1
    in
    let rec dfs pos n_used =
      if !nodes >= node_limit then truncated := true
      else begin
        incr nodes;
        Obs.incr "lp.exact.node";
        if pos = n then try_complete n_used
        else begin
          let bound = n_used + max 0 (ceil_div remaining.(pos) speed - n_used) in
          (* bound = processors already open plus at least enough for the
             remaining work; conservative but cheap. *)
          if bound >= best_procs () then Obs.incr "lp.exact.pruned"
          else begin
            let op = order.(pos) in
            let branch u n_used =
              Ledger.add_operator ledger u op;
              dfs (pos + 1) n_used;
              Ledger.remove_operator ledger u op
            in
            (* Existing groups first, then (canonically) one new group. *)
            for u = 0 to n_used - 1 do
              if best_procs () > n_used && fits op u then branch u n_used
            done;
            if n_used < n && n_used + 1 < best_procs () && fits op n_used then
              branch n_used (n_used + 1)
          end
        end
      end
    in
    dfs 0 0;
    match !best with
    | None ->
      if !truncated then Error "Exact.solve: node limit reached, no solution"
      else Error "Exact.solve: no feasible solution exists"
    | Some b -> Ok { b with proven = not !truncated; nodes = !nodes }
  end
