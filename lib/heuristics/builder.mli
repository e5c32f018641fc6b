(** Mutable placement state shared by all operator-placement heuristics,
    on trees and on shared DAGs alike.

    A builder reads an operator-graph view ({!Insp_tree.Graph}): one
    tree, or a DAG shared by several applications.  It tracks a set of
    {e groups} — processors being provisioned, each with a configuration
    and a set of operators — plus the operator-to-group assignment.
    Every mutation is guarded by the exact final-state capacity test: a
    group's demand ({!Insp_mapping.Demand}) only decreases when other
    operators join their neighbours later (on a DAG, a stream towards a
    group that gains a slower consumer keeps its rate, and a producer's
    host sends fewer streams), so a check that passes during
    construction still passes at validation time.

    Groups are backed by an {!Insp_mapping.Ledger}: probes
    ({!try_add}, {!try_absorb} and the upgrade variants) are answered
    from incrementally maintained per-group loads and pair flows in
    O(degree of the probed operator), not by recomputing the group
    demand from scratch.  Pair flows (constraint (5)) are only checked
    where the mutation changes them; unchanged pairs stay feasible by
    construction, so the decisions are the same as checking every
    group. *)

type t

type group_id = int

val create : Insp_tree.Graph.t -> Insp_platform.Platform.t -> t
(** Node [i] of the view is operator [i]; a tree passes
    [Graph.of_app app], a DAG [Dag.graph dag]. *)

val graph : t -> Insp_tree.Graph.t
val platform : t -> Insp_platform.Platform.t

val ledger : t -> Insp_mapping.Ledger.t
(** The backing ledger (group ids = ledger processor ids).  Exposed for
    diagnostics and consistency tests; mutate through the builder. *)

val group_ids : t -> group_id list
(** Live groups, in acquisition order. *)

val members : t -> group_id -> int list
val config : t -> group_id -> Insp_platform.Catalog.config
val assignment : t -> int -> group_id option
val unassigned : t -> int list
(** Operators not yet placed, increasing id order. *)

val can_host :
  t ->
  config:Insp_platform.Catalog.config ->
  members:int list ->
  ?ignore_groups:group_id list ->
  unit ->
  bool
(** Would a processor with [config] hosting exactly [members] satisfy its
    compute and NIC capacity and keep every link flow towards the other
    live groups (minus [ignore_groups]) within [proc_link]? *)

val cheapest_hosting :
  t -> members:int list -> ?ignore_groups:group_id list -> unit ->
  Insp_platform.Catalog.config option
(** Cheapest catalog configuration passing {!can_host}; [None] if even
    the best configuration fails. *)

val acquire :
  t -> config:Insp_platform.Catalog.config -> members:int list ->
  (group_id, string) result
(** Buys a new processor for [members] (all currently unassigned).
    Fails without mutating when {!can_host} rejects. *)

val try_add : t -> group_id -> int -> bool
(** Attempts to place one unassigned operator on an existing group,
    keeping the group's configuration.  Returns [false] (no mutation)
    when it does not fit. *)

val try_absorb : t -> group_id -> group_id -> bool
(** [try_absorb t winner loser] moves every operator of [loser] onto
    [winner] (keeping [winner]'s configuration) and sells [loser].
    Returns [false] without mutating when the union does not fit.  A
    union whose compute load alone overflows [winner] is rejected
    without the merge probe, with the probe's counters and journal
    event. *)

val try_add_upgrade : t -> group_id -> int -> bool
(** Like {!try_add}, but allowed to exchange the group's processor for
    the cheapest configuration hosting the extended group (constructive
    setting: the old unit is sold back).  Never downgrades below what the
    extended group needs. *)

val try_absorb_upgrade : t -> group_id -> group_id -> bool
(** Like {!try_absorb}, but the winner may be exchanged for the cheapest
    configuration hosting the merged group. *)

val sell : t -> group_id -> unit
(** Returns the processor to the store; all its operators become
    unassigned again. *)

val finalize : t -> (int list array * Insp_platform.Catalog.config array, string) result
(** Compacted groups and configurations, in acquisition order.  Fails if
    any operator is still unassigned. *)
