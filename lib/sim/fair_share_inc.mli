(** Incremental max-min fair-share kernel.

    Maintains a persistent route/constraint bipartite incidence
    structure so that the event loop can add and remove flows cheaply
    and only pay for re-solving the connected component that actually
    changed.  Constraints (port capacities, link capacities) and routes
    (the set of constraints a flow crosses) are registered once and
    keep their index for the lifetime of the kernel; flows come and go
    on a route, with slots reused so the working set stays proportional
    to the number of {e concurrently} active flows.

    The route, not the flow, is the unit the kernel fills: flows on one
    route always freeze in the same round at the same share, so a route
    carries a count of its active flows and one rate for all of them.

    A {!refresh} re-waterfills only the exact connected components of
    the incidence graph that hold a constraint touched since the last
    refresh, found by a generation-stamped breadth-first search over
    the incidence arrays.

    Rates are deterministic and {e bit-identical} to a from-scratch
    progressive filling over all active flows (the test suite's
    oracle): max-min water-filling decomposes over connected
    components, the kernel replicates the oracle's tie-breaking (lowest
    constraint index), and a route of [n] flows subtracts its share [n]
    times, as the oracle's [n] flows do.  See DESIGN.md §11 for the
    invariants. *)

type t

type stats = {
  refreshes : int;  (** {!refresh} calls that did any work *)
  components_recomputed : int;  (** components re-waterfilled *)
  routes_recomputed : int;  (** route rates recomputed across those *)
  flows_recomputed : int;  (** active flows on those routes *)
  rounds : int;  (** water-filling rounds executed *)
}

val create : unit -> t
(** Fresh empty kernel. *)

val add_constraint : t -> float -> int
(** [add_constraint t cap] registers a capacity and returns its
    constraint index.  Indices are dense, starting at 0, and never
    recycled.  Raises [Invalid_argument] on a negative cap. *)

val set_capacity : t -> int -> float -> unit
(** [set_capacity t cid cap] replaces the registered capacity of
    constraint [cid] — the fault-injection entry point (processor card
    jitter, link degradation, server outage).  Takes effect on rates at
    the next {!refresh}, which re-waterfills only the constraint's
    component.
    Raises [Invalid_argument] on an unknown index or a negative cap. *)

val add_route : t -> int array -> int
(** [add_route t ms] registers a route crossing constraints [ms] and
    returns its route id.  Ids are dense, starting at 0, and never
    recycled.  The kernel keeps [ms] without copying it, so the caller
    must not mutate it.  Two routes may cross the same constraints: they
    freeze in the same round and get the same rate.  Raises
    [Invalid_argument] if [ms] is empty, contains an unknown constraint
    index or repeats one. *)

val add_flow : t -> int -> int
(** [add_flow t rid] starts a flow along route [rid] and returns its
    flow id.  Ids are reused LIFO after {!remove_flow}.  Until the next
    {!refresh} the new flow reads its route's rate: the rate of the
    flows already on a live route, or 0 if the route had none.
    Raises [Invalid_argument] on an unknown route. *)

val remove_flow : t -> int -> unit
(** Deregisters an active flow.  Raises [Invalid_argument] if the id is
    not currently active.  Takes effect on rates at the next
    {!refresh}. *)

val refresh : t -> unit
(** Recomputes rates to reflect all {!add_flow} / {!remove_flow} /
    {!set_capacity} calls since the previous refresh.  Batching is
    free: any number of changes is absorbed by a single refresh, and a
    refresh with no pending changes is a no-op. *)

val rate : t -> int -> float
(** Current max-min rate of an active flow: its route's rate as of the
    last {!refresh}.  Raises [Invalid_argument] on an inactive id. *)

val active_flows : t -> int list
(** Active flow ids, ascending. *)

(** {1 Read-only views for the event loop}

    The simulator's per-step passes read every active flow's rate.  A
    per-fid call or closure into this module is never inlined when
    modules compile [-opaque] (dune's dev profile), so the loop reads
    the kernel's own arrays instead: for [fid < n_slots t],
    [(active_view t).(fid)] tells whether the slot holds an active
    flow, [(route_view t).(fid)] is an active flow's route, and
    [(rates_view t).(rid)] is route [rid]'s rate as of the last
    {!refresh}.  The arrays may be reallocated by {!add_route} and
    {!add_flow}, so fetch them again after adding either, and never
    write to them. *)

val n_slots : t -> int
(** One past the highest flow id ever handed out. *)

val rates_view : t -> float array
val route_view : t -> int array
val active_view : t -> bool array

val components : t -> int list list
(** Exact connected components of the constraint graph, each a sorted
    list of constraint indices, ordered by smallest member.  Constraints
    with no active flows appear as singletons.  A full traversal, so
    this is a test/debug helper, not a hot-path call. *)

val stats : t -> stats
(** Cumulative counters since {!create}.  The simulator flushes these
    into [sim.component.*] observability counters at the end of a
    run. *)
