(** Incremental max-min fair-share kernel.

    Maintains a persistent flow/constraint bipartite incidence structure
    so that the event loop can add and remove flows cheaply and only pay
    for re-solving the connected component that actually changed.
    Constraints (port capacities, link capacities) are registered once
    and keep their index for the lifetime of the kernel; flows come and
    go, with slots reused so the working set stays proportional to the
    number of {e concurrently} active flows.

    A {!refresh} re-waterfills only the exact connected components of
    the incidence graph that hold a constraint touched since the last
    refresh, found by a generation-stamped breadth-first search over
    the incidence arrays.

    Rates are deterministic and {e bit-identical} to a from-scratch
    progressive filling over all active flows in ascending flow id
    order (the test suite's oracle): max-min water-filling decomposes
    over connected components, and the kernel replicates the oracle's
    tie-breaking (lowest constraint index) and flow iteration order
    (ascending flow id) exactly.  See DESIGN.md §11 for the
    invariants. *)

type t

type stats = {
  refreshes : int;  (** {!refresh} calls that did any work *)
  components_recomputed : int;  (** components re-waterfilled *)
  flows_recomputed : int;  (** flow rates recomputed across those *)
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

val add_flow : t -> int array -> int
(** [add_flow t ms] registers a flow crossing constraints [ms] and
    returns its flow id.  The kernel keeps [ms] for the flow's lifetime
    without copying it, so the caller must not mutate it; flows with the
    same route may share one array.  Ids are reused LIFO after
    {!remove_flow}.  The new flow's rate is 0 until the next {!refresh}.
    Raises [Invalid_argument] if [ms] is empty or contains an unknown
    constraint index. *)

val remove_flow : t -> int -> unit
(** Deregisters an active flow.  Raises [Invalid_argument] if the id is
    not currently active.  Takes effect on rates at the next
    {!refresh}. *)

val refresh : t -> unit
(** Recomputes rates to reflect all {!add_flow} / {!remove_flow} calls
    since the previous refresh.  Batching is free: any number of
    adds/removals is absorbed by a single refresh, and a refresh with
    no pending changes is a no-op. *)

val rate : t -> int -> float
(** Current max-min rate of an active flow, as of the last {!refresh}.
    Raises [Invalid_argument] on an inactive id. *)

val active_flows : t -> int list
(** Active flow ids, ascending. *)

(** {1 Read-only views for the event loop}

    The simulator's per-step passes read every active flow's rate.  A
    per-fid call or closure into this module is never inlined when
    modules compile [-opaque] (dune's dev profile), so the loop reads
    the kernel's own arrays instead: for [fid < n_slots t],
    [(active_view t).(fid)] tells whether the slot holds an active flow
    and [(rates_view t).(fid)] is its rate as of the last {!refresh}.
    The arrays may be reallocated by {!add_flow}, so fetch them again
    after adding a flow, and never write to them. *)

val n_slots : t -> int
(** One past the highest flow id ever handed out. *)

val rates_view : t -> float array
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
