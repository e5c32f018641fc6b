(** Fixed data servers holding the basic objects (paper §2.2).

    Servers are given, not purchased.  Server [S_l] has a network card of
    bandwidth [Bs_l] (MB/s) and holds a subset of the object types; a
    processor downloading object [o_k] from [S_l] consumes [rate_k] on
    the server's card and on the server-to-processor link. *)

type t

val make : cards:float array -> holds:bool array array -> t
(** [holds.(l).(k)] says server [l] carries object type [k].  All rows
    must have the same width; every object type must be held by at least
    one server; cards must be strictly positive. *)

val random_placement :
  Insp_util.Prng.t ->
  n_servers:int ->
  n_object_types:int ->
  card:float ->
  ?min_copies:int ->
  ?max_copies:int ->
  unit ->
  t
(** Paper §5 setup: object types distributed randomly over the servers.
    Each object type is placed on a uniformly drawn number of distinct
    servers between [min_copies] (default 1) and [max_copies] (default
    [min 2 n_servers]). *)

val n_servers : t -> int
val n_object_types : t -> int

val card : t -> int -> float
(** Network-card bandwidth of a server (MB/s). *)

val holds : t -> int -> int -> bool
(** [holds t l k]: does server [l] carry object type [k]? *)

val providers : t -> int -> int list
(** Servers holding object type [k], increasing order.  Never empty. *)

val availability : t -> int -> int
(** [av_k]: number of servers holding object type [k] (paper's
    Object-Availability metric). *)

val objects_on : t -> int -> int list
(** Object types carried by a server, increasing order. *)

val exclusive_objects : t -> (int * int) list
(** Pairs [(k, l)] where object [k] is held only by server [l] (the
    server-selection heuristic's first loop). *)

val single_object_servers : t -> int list
(** Servers that carry exactly one object type (second loop). *)
