(** The complete target platform: purchase catalog, fixed data servers and
    interconnect bandwidths.

    The interconnect is a fully connected graph: every server-to-processor
    link has bandwidth [server_link] ([bs_l], uniform as in the paper's
    "1 GB link" setup), every processor-to-processor link has bandwidth
    [proc_link] ([bp]).  Units: MB/s. *)

type t = {
  catalog : Catalog.t;
  servers : Servers.t;
  server_link : float;  (** [bs]: server -> processor link bandwidth *)
  proc_link : float;  (** [bp]: processor <-> processor link bandwidth *)
}

val make :
  catalog:Catalog.t ->
  servers:Servers.t ->
  ?server_link:float ->
  ?proc_link:float ->
  unit ->
  t
(** Links default to 1000 MB/s (the paper's uniform 1 GB links). *)

val paper_default :
  Insp_util.Prng.t ->
  ?n_servers:int ->
  ?n_object_types:int ->
  ?min_copies:int ->
  ?max_copies:int ->
  unit ->
  t
(** The paper's §5 platform: 6 servers with 10 GB/s cards (10000 MB/s),
    15 object types randomly distributed, 1000 MB/s links, Dell 2008
    purchase catalog. *)

val homogeneous : t -> cpu_index:int -> nic_index:int -> t
(** Same platform with the catalog restricted to one configuration
    (CONSTR-HOM). *)
