type t = {
  catalog : Catalog.t;
  servers : Servers.t;
  server_link : float;
  proc_link : float;
}

let make ~catalog ~servers ?(server_link = 1000.0) ?(proc_link = 1000.0) () =
  if server_link <= 0.0 || proc_link <= 0.0 then
    invalid_arg "Platform.make: non-positive link bandwidth";
  { catalog; servers; server_link; proc_link }

let paper_default rng ?(n_servers = 6) ?(n_object_types = 15) ?(min_copies = 1)
    ?max_copies () =
  let servers =
    Servers.random_placement rng ~n_servers ~n_object_types ~card:10000.0
      ~min_copies ?max_copies ()
  in
  make ~catalog:Catalog.dell_2008 ~servers ()

let homogeneous t ~cpu_index ~nic_index =
  { t with catalog = Catalog.homogeneous t.catalog ~cpu_index ~nic_index }
