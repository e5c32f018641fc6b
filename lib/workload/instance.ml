module Prng = Insp_util.Prng
module App = Insp_tree.App
module Objects = Insp_tree.Objects
module Generate = Insp_tree.Generate
module Platform = Insp_platform.Platform
module Catalog = Insp_platform.Catalog
module Demand = Insp_mapping.Demand

type t = {
  config : Config.t;
  app : App.t;
  platform : Platform.t;
}

let build_app config ~tree ~sizes ~freq =
  let objects = Objects.uniform_freq ~sizes ~freq in
  App.make ~rho:config.Config.rho ~base_work:config.Config.base_work
    ~work_factor:config.Config.work_factor ~tree ~objects
    ~alpha:config.Config.alpha ()

let generate (config : Config.t) =
  let master = Prng.create config.seed in
  let tree_rng = Prng.split master in
  let size_rng = Prng.split master in
  let server_rng = Prng.split master in
  let tree =
    Generate.random_shape tree_rng ~n_operators:config.n_operators
      ~n_object_types:config.n_object_types
  in
  let lo, hi = Config.size_range config.sizes in
  let sizes =
    Generate.random_sizes size_rng ~n_object_types:config.n_object_types ~lo
      ~hi
  in
  let app = build_app config ~tree ~sizes ~freq:(Config.frequency config.freq) in
  let platform =
    Platform.paper_default server_rng ~n_servers:config.n_servers
      ~n_object_types:config.n_object_types ~min_copies:config.min_copies
      ~max_copies:config.max_copies ()
  in
  { config; app; platform }

type gen_error =
  | Operator_count_out_of_range of { requested : int; limit : int }
  | Operator_exceeds_catalog of {
      operator : int;
      work : float;
      nic : float;
      cpu_limit : float;
      nic_limit : float;
    }

let gen_error_message = function
  | Operator_count_out_of_range { requested; limit } ->
    Printf.sprintf "operator count %d outside the generatable range [1, %d]"
      requested limit
  | Operator_exceeds_catalog { operator; work; nic; cpu_limit; nic_limit } ->
    Printf.sprintf
      "operator n%d alone (%.1f Mops/s compute, %.1f MB/s NIC) exceeds the \
       platform catalog's largest configuration (%.1f Mops/s, %.1f MB/s): \
       no allocation can exist"
      operator work nic cpu_limit nic_limit

let generate_checked (config : Config.t) =
  let limit = Sys.max_array_length - 1 in
  if config.Config.n_operators < 1 || config.Config.n_operators > limit then
    Error
      (Operator_count_out_of_range
         { requested = config.Config.n_operators; limit })
  else begin
    let t = generate config in
    let best = Catalog.best t.platform.Platform.catalog in
    (* Necessary feasibility condition: every operator alone must fit
       the catalog's largest machine.  An operator count too large for
       the configured object sizes concentrates the whole stream on the
       root and trips this (the paper's parameters support a few hundred
       operators; the scale preset supports ~300k). *)
    let g = Insp_tree.Graph.of_app t.app in
    let rec scan i =
      if i >= App.n_operators t.app then Ok t
      else begin
        let d = Demand.of_operator g i in
        if Demand.fits best d then scan (i + 1)
        else
          Error
            (Operator_exceeds_catalog
               {
                 operator = i;
                 work = d.Demand.compute;
                 nic = Demand.nic d;
                 cpu_limit = best.Catalog.cpu.Catalog.speed;
                 nic_limit = best.Catalog.nic.Catalog.bandwidth;
               })
      end
    in
    scan 0
  end

let with_frequency t freq =
  if freq <= 0.0 then invalid_arg "Instance.with_frequency: non-positive";
  let objects = Objects.with_freq (App.objects t.app) freq in
  let app =
    App.make ~rho:t.config.Config.rho ~base_work:t.config.Config.base_work
      ~work_factor:t.config.Config.work_factor ~tree:(App.tree t.app) ~objects
      ~alpha:t.config.Config.alpha ()
  in
  { t with app; config = { t.config with Config.freq = Config.Custom freq } }

let homogeneous t ~cpu_index ~nic_index =
  { t with platform = Platform.homogeneous t.platform ~cpu_index ~nic_index }

let pp ppf t =
  Format.fprintf ppf "@[<v>%a@ %a@]" Config.pp t.config
    Insp_tree.Metrics.pp
    (Insp_tree.Metrics.compute t.app)
