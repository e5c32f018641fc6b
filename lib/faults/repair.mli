(** Re-allocation of displaced operators after processor failures.

    Given a feasible allocation and a set of failed processor indices,
    the repair loop rebuilds the placement against residual capacity:
    survivors keep their processors (re-acquired into an
    {!Insp_heuristics.Builder} in index order), and each displaced
    operator is re-placed in ascending id order — first by migration
    onto a surviving processor (as-is, then allowing a configuration
    upgrade), and only then, when permitted, by buying a replacement
    processor ("rebuy").  The repaired mapping goes through the same
    server-selection / downgrade / checker tail as a fresh solve
    ({!Insp_heuristics.Solve.finish}, three-loop selection), so an [Ok]
    outcome always satisfies the paper's constraints (1)–(5).

    An overloaded post-crash platform is reported as [Error] with the
    checker's explanation — never silently degraded.

    Builder probing runs under a journal-suppressed sink (metrics still
    merge up); only the repair decisions themselves are journaled:
    {!Insp_obs.Journal.Repair_migrate} and
    {!Insp_obs.Journal.Repair_rebuy}, in placement order. *)

type outcome = {
  alloc : Insp_mapping.Alloc.t;  (** repaired, checker-feasible *)
  cost_before : float;  (** full pre-crash platform cost *)
  cost_after : float;  (** repaired platform cost *)
  realloc_cost : float;
      (** [cost_after - (cost_before - cost of failed processors)]: what
          the repair spent on top of the surviving capacity (upgrades
          and rebuys, minus downgrade refunds) *)
  migrations : int;  (** operators moved onto surviving processors *)
  rebuys : int;  (** replacement processors bought *)
  downgrades : int;  (** processors downgraded after re-placement *)
}

val run :
  ?max_procs:int ->
  ?allow_rebuy:bool ->
  Insp_tree.Graph.t ->
  Insp_platform.Platform.t ->
  Insp_mapping.Alloc.t ->
  failed:int list ->
  (outcome, string) result
(** [run g platform alloc ~failed] repairs [alloc] after losing the
    processors in [failed] (indices into [alloc], deduplicated; raises
    [Invalid_argument] out of range).  [?allow_rebuy] (default [true])
    permits buying replacements; [?max_procs] caps the repaired
    processor count when rebuying.  Deterministic: equal inputs give
    equal outcomes and equal journals. *)
