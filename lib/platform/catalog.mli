(** Processor purchase catalog (paper Table 1).

    A processor is a chassis plus one CPU option and one network-card
    option.  The paper prices Intel PowerEdge R900 configurations (Dell,
    March 2008): a fixed chassis cost of $7,548, five CPU upgrade levels
    and five NIC upgrade levels.  The heterogeneous case where all
    combinations can be bought is CONSTR-LAN; restricting the catalog to
    a single CPU and NIC option gives CONSTR-HOM.

    Units: CPU speeds in Mops/s (paper "GHz" x 1000), NIC bandwidths in
    MB/s (paper Gbps x 125), costs in dollars. *)

type cpu = { speed : float; cpu_cost : float }
type nic = { bandwidth : float; nic_cost : float }
type config = { cpu : cpu; nic : nic }

type t

val dell_2008 : t
(** The exact Table 1 catalog. *)

val homogeneous : t -> cpu_index:int -> nic_index:int -> t
(** Restriction of a catalog to a single configuration (CONSTR-HOM). *)

val is_homogeneous : t -> bool

val config_cost : t -> config -> float
(** chassis + CPU upgrade + NIC upgrade. *)

val best : t -> config
(** Fastest CPU with the widest NIC (the "most expensive processor" the
    heuristics provision before downgrading). *)

val cheapest : t -> config
(** Slowest CPU with the narrowest NIC. *)

val configs : t -> config list
(** All CPU x NIC combinations, sorted by increasing cost (ties: slower
    CPU first). *)

val cheapest_satisfying : t -> speed:float -> bandwidth:float -> config option
(** Least-cost configuration with [cpu.speed >= speed] and
    [nic.bandwidth >= bandwidth]; [None] when even {!best} does not
    qualify. *)

val fits : config -> speed:float -> bandwidth:float -> bool
(** Capacity test used both by provisioning and by downgrading. *)

val label : config -> string
(** Compact stable identifier, e.g. ["cpu11720/nic125"] — used by the
    decision journal, where configurations are compared and rendered as
    strings. *)

val pp_config : Format.formatter -> config -> unit
val pp : Format.formatter -> t -> unit
