(** Fault-scenario execution: walk a {!Scenario} timeline against a
    deployed allocation, repairing and measuring as faults land.

    - {b Processor crashes} invoke the {!Repair} loop against the
      residual capacity; an irreparable crash (the deliberately
      overloaded case) stops the walk with [infeasible_at] set rather
      than silently degrading.  Burst crashes at one instant are
      repaired sequentially.
    - {b Capacity faults} (link degradation, server outage, card
      jitter) are replayed through the discrete-event runtime as
      {!Insp_sim.Runtime.disruption} windows, measuring the throughput
      dip and the recovery time from the raw root-completion
      timestamps.
    - {b Demand shifts} ([Rho_demand]) scale the view's rates to
      [factor] x the original ({!Insp_tree.Graph.scale_rates}); if the
      deployed mapping no longer passes the constraint checker the
      engine redeploys from scratch with the spec's heuristic.

    Every decision is journaled ([Fault_crash], [Fault_capacity],
    [Fault_rho], [Repair_migrate], [Repair_rebuy], [Repair_done],
    [Repair_infeasible]); solver and simulator chatter runs under
    journal-suppressed sinks.  Equal inputs give byte-identical
    journals. *)

type spec = {
  max_procs : int option;  (** cap on the repaired processor count *)
  allow_rebuy : bool;  (** false = migration-only repair *)
  measure : bool;  (** false skips the DES replay of capacity faults *)
  heuristic : Insp_heuristics.Solve.heuristic;  (** for rho redeploys *)
}

val make_spec :
  ?max_procs:int ->
  ?allow_rebuy:bool ->
  ?measure:bool ->
  ?heuristic:Insp_heuristics.Solve.heuristic ->
  unit ->
  spec
(** Defaults: no processor cap, rebuy allowed, DES measurement on,
    Subtree-bottom-up for redeploys.  The delays are constants: a
    repair's downtime is 1 s of detection plus 0.5 s per migrated
    operator plus 5 s per rebought processor, and a measured capacity
    fault is observed for 10 s after its restoration. *)

type episode = {
  ep_t : float;
  ep_label : string;  (** {!Scenario.scope_label} of the reduced fault *)
  ep_downtime : float;
  ep_cost : float;  (** signed re-allocation spend for this episode *)
  ep_migrations : int;
  ep_rebuys : int;
  ep_dip : float option;
      (** worst in-window throughput, as a fraction of rho (measured
          capacity faults only) *)
  ep_recovery : float option;
      (** seconds after restoration until throughput regains 90% of
          rho; [None] when not measured or not regained in the window *)
}

type report = {
  episodes : episode list;  (** timeline order *)
  total_downtime : float;
  total_realloc_cost : float;
  final_cost : float;
  final_procs : int;
  worst_dip : float option;
  infeasible_at : float option;
      (** the instant an irreparable fault stopped the walk, if any *)
  n_crashes : int;
  n_capacity : int;
  n_rho : int;
}

val run :
  spec ->
  Insp_tree.Graph.t ->
  Insp_platform.Platform.t ->
  Insp_mapping.Alloc.t ->
  Scenario.timed list ->
  report
(** Walk the timeline in order; rho is the rate of the view's first
    root.  Raw generator indices are reduced modulo the current
    processor / server count at each event.  The walk stops at the
    first irreparable fault. *)

val pp_report : Format.formatter -> report -> unit
