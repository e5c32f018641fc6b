module App = Insp_tree.App
module Optree = Insp_tree.Optree
module Catalog = Insp_platform.Catalog
module Platform = Insp_platform.Platform
module Alloc = Insp_mapping.Alloc
module Check = Insp_mapping.Check
module Cost = Insp_mapping.Cost
module Demand = Insp_mapping.Demand
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

let solve ?(node_limit = 2_000_000) app platform =
  let catalog = platform.Platform.catalog in
  if not (Catalog.is_homogeneous catalog) then
    Error "Exact.solve: platform must be homogeneous (CONSTR-HOM)"
  else begin
    let config = Catalog.cheapest catalog in
    let speed = config.Catalog.cpu.Catalog.speed in
    let proc_cost = Catalog.config_cost catalog config in
    let tree = App.tree app and graph = Insp_tree.Graph.of_app app in
    let n = App.n_operators app in
    let order = Array.of_list (Optree.preorder tree) in
    let rho = App.rho app in
    (* Suffix sums of remaining work along the assignment order, for the
       compute-based bound. *)
    let remaining = Array.make (n + 1) 0.0 in
    for pos = n - 1 downto 0 do
      remaining.(pos) <- remaining.(pos + 1) +. (rho *. App.work app order.(pos))
    done;
    let groups = Array.make n [] in
    let assign = Array.make n (-1) in
    let best : result option ref = ref None in
    let nodes = ref 0 in
    let truncated = ref false in
    let flow_between g h =
      let one_way src =
        List.fold_left
          (fun acc i ->
            match Optree.parent tree i with
            | Some p when List.mem p h -> acc +. (rho *. App.output_size app i)
            | Some _ | None -> acc)
          0.0 src
      in
      one_way g +. one_way h
    in
    let fits_with op gid =
      let candidate = op :: groups.(gid) in
      Demand.fits config (Demand.of_group graph candidate)
      &&
      let ok = ref true in
      for other = 0 to n - 1 do
        if other <> gid && groups.(other) <> [] then
          if
            flow_between candidate groups.(other)
            > platform.Platform.proc_link +. 1e-9
          then ok := false
      done;
      !ok
    in
    let try_complete n_used =
      let live = Array.sub groups 0 n_used in
      match
        Server_select.sophisticated app platform ~groups:live
      with
      | Error _ -> ()
      | Ok downloads ->
        let alloc =
          Alloc.of_groups
            ~configs:(Array.make n_used config)
            ~groups:live ~downloads
        in
        if Check.check app platform alloc = [] then begin
          let cost = float_of_int n_used *. proc_cost in
          match !best with
          | Some b when b.cost <= cost -> ()
          | _ ->
            Obs.mark "lp.exact.incumbent";
            Obs.gauge "lp.exact.incumbent" (float_of_int n_used);
            if Obs.journaling () then
              Obs.event_bounded ~category:"lp"
                (Journal.Exact_incumbent { n_procs = n_used; nodes = !nodes });
            best :=
              Some
                {
                  n_procs = n_used;
                  cost;
                  alloc;
                  proven = false;
                  nodes = !nodes;
                }
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
            (* Existing groups first, then (canonically) one new group. *)
            for gid = 0 to n_used - 1 do
              if best_procs () > n_used && fits_with op gid then begin
                groups.(gid) <- op :: groups.(gid);
                assign.(op) <- gid;
                dfs (pos + 1) n_used;
                groups.(gid) <- List.tl groups.(gid);
                assign.(op) <- -1
              end
            done;
            if
              n_used < n
              && n_used + 1 < best_procs ()
              && fits_with op n_used
            then begin
              groups.(n_used) <- [ op ];
              assign.(op) <- n_used;
              dfs (pos + 1) (n_used + 1);
              groups.(n_used) <- [];
              assign.(op) <- -1
            end
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
