(** Persistent multi-tenant allocation service (ROADMAP item 1).

    Holds one platform and the set of admitted applications across a
    deterministic event stream ({!Stream}) of arrivals and departures.
    On arrival the service solves the application against the scope's
    {e residual} platform (an existing heuristic on a capacity-reduced
    copy), re-validates the proposed allocation through a fresh
    {!Insp_mapping.Ledger} probe, and admits or rejects with a journaled
    reason.  On departure the application's capacity returns to the pool
    and a resale fraction of its cost is refunded; optionally the
    tenant's survivors are re-optimized against the freed capacity.

    Two tenancy models:
    - {!Static_slicing} — every tenant owns a fixed 1/n partition of the
      processor budget and of each server card;
    - {!Shared} — one pool, first-come first-served.

    Shared finite resources are the platform-wide processor budget and
    the per-server card bandwidth.  Link bandwidths are modelled
    per-application (as in the one-shot paper setting) and are not
    contended between applications.

    Determinism: residuals are recomputed from the ordered map of
    admitted applications on every query, never kept as mutable float
    accumulators — so admit-then-depart restores byte-identical state,
    and equal seeds give byte-identical journals and dumps. *)

type tenancy = Static_slicing | Shared

val tenancy_label : tenancy -> string
(** ["static"] / ["shared"]. *)

type params = {
  base : Insp_workload.Config.t;
      (** workload template; [n_operators] and [seed] are overridden per
          application, [seed] also generates the service platform *)
  tenancy : tenancy;
  n_tenants : int;
  proc_budget : int;
      (** maximum concurrently allocated processors, platform-wide *)
  card_scale : float;
      (** server card bandwidths are multiplied by this at platform
          creation; the paper's calibration provisions cards for one
          application, so values well below 1 make cards a contended
          resource under co-tenancy *)
  heuristic : Insp_heuristics.Solve.heuristic;
  resale : float;  (** fraction of cost refunded on departure, in [0,1] *)
  reoptimize : bool;
      (** re-solve the departing tenant's survivors after each
          departure: strictly cheaper allocations are adopted as
          sell-old + buy-new; equal-cost allocations that lower the
          scope's worst card utilization are adopted as free rebalances
          (making room for future arrivals) *)
}

val make_params :
  ?base:Insp_workload.Config.t ->
  ?tenancy:tenancy ->
  ?n_tenants:int ->
  ?proc_budget:int ->
  ?card_scale:float ->
  ?heuristic:Insp_heuristics.Solve.heuristic ->
  ?resale:float ->
  ?reoptimize:bool ->
  unit ->
  params
(** Defaults: {!Insp_workload.Config.default} base, [Shared], 4 tenants,
    budget 96, card_scale 1, Subtree-bottom-up, resale 0.5, no
    re-optimization. *)

type t

exception Unknown_departure of { app : int; t : int }
(** Raised (after journaling {!Insp_obs.Journal.Serve_unknown_depart})
    by {!handle} on a departure whose application id never arrived —
    a malformed stream, distinct from the benign departure of a
    rejected application. *)

val create : params -> t
(** Generates the service platform from [params.base] (deterministic in
    [base.seed]); no applications admitted yet. *)

val run : params -> Stream.event list -> t
(** {!create} then {!handle} each event in order. *)

val handle : t -> Stream.event -> unit
(** Process one event.  Arrivals admit or reject (and count both);
    departures of admitted applications release capacity and refund;
    departures of previously seen but no-longer-live applications
    (rejected on arrival) are no-ops.  Raises
    [Invalid_argument] on malformed streams (duplicate arrival, tenant
    out of range) and {!Unknown_departure} on a departure of a
    never-seen application id. *)

val params : t -> params
val n_live : t -> int

(** {1 Residual capacity}

    For [Shared] tenancy the [tenant] argument is irrelevant (any value
    selects the one pool); for [Static_slicing] it selects the tenant's
    partition.  [?excluding] drops one admitted application from the
    usage sum (the re-optimization viewpoint). *)

val residual_cards : ?excluding:int -> t -> tenant:int -> float array
(** Per-server card bandwidth remaining in the scope.  Never negative
    (beyond float re-summation noise) when the stream is well-formed —
    the property pinned by the serve loop tests. *)

val residual_procs : ?excluding:int -> t -> tenant:int -> int
(** Processors remaining in the scope's budget. *)

(** {1 Accounting} *)

type reject_reason = R_placement | R_proc_budget | R_ledger

type account = {
  mutable purchased : float;
  mutable refunded : float;
  mutable admitted : int;
  mutable rejected : int;
  mutable departed : int;
}

type tenant_summary = {
  tenant : int;  (** -1 in {!totals} *)
  purchased : float;
  refunded : float;
  net_cost : float;  (** purchased - refunded *)
  admitted : int;
  rejected : int;
  departed : int;
  live : int;
}

val summary : t -> tenant_summary list
(** One entry per tenant, tenant order. *)

val totals : t -> tenant_summary
(** Sum over tenants, [tenant = -1]. *)

val rejection_rate : tenant_summary -> float
(** [rejected / (admitted + rejected)]; 0 when no arrivals. *)

(** {1 Canonical dumps} *)

val dump_state : t -> string
(** Live applications and residual capacities, then per-tenant account
    lines. *)
