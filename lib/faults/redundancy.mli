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
  ?max_spares:int ->
  Insp_tree.App.t ->
  Insp_platform.Platform.t ->
  Insp_mapping.Alloc.t ->
  (hardened, string) result
(** [harden app platform alloc] (defaults [k = 1], [max_spares = 8]).
    [Error] when the property is still violated after [max_spares]
    spares.  [k = 0] verifies plain feasibility and buys nothing. *)

val frontier :
  ?k_max:int ->
  ?max_spares:int ->
  Insp_tree.App.t ->
  Insp_platform.Platform.t ->
  Insp_mapping.Alloc.t ->
  (int * (hardened, string) result) list
(** [harden] at every K in [0..k_max] (default 1), ascending. *)
