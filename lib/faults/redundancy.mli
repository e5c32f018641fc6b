(** Redundancy-aware placement: buy spare capacity so that {e any}
    K-processor failure can be repaired by migration alone — the root
    keeps its target throughput rho without waiting on re-provisioning.

    {!harden} grows the allocation with spare processors until every
    K-subset of failures passes the migration-only {!Repair} loop
    (checker-feasible repaired mapping), then downgrades each spare to
    the cheapest catalog configuration preserving the property.  The
    resulting cost against the unhardened base quantifies the
    cost-of-resilience frontier ({!frontier}).  Fully deterministic. *)

type hardened = {
  alloc : Insp_mapping.Alloc.t;
      (** base allocation plus spare processors (appended, empty) *)
  k : int;
  spares : int;
  base_cost : float;  (** cost of the unhardened allocation *)
  cost : float;  (** cost including spares *)
}

val harden :
  ?k:int ->
  Insp_tree.Graph.t ->
  Insp_platform.Platform.t ->
  Insp_mapping.Alloc.t ->
  (hardened, string) result
(** [harden g platform alloc] (default [k = 1]).  [Error] when the
    property is still violated after 8 spares.  [k = 0] verifies plain
    feasibility and buys nothing. *)

val frontier :
  ?k_max:int ->
  Insp_tree.Graph.t ->
  Insp_platform.Platform.t ->
  Insp_mapping.Alloc.t ->
  (int * (hardened, string) result) list
(** [harden] at every K in [0..k_max] (default 1), ascending. *)
