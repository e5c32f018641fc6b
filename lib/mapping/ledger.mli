(** Incremental demand/feasibility ledger over an operator-graph view
    ({!Insp_tree.Graph}): one operator tree, or a DAG shared by several
    applications.

    Maintains, as mutable state, every quantity the from-scratch checker
    {!Check.check_graph} derives from an allocation: per-processor
    compute, communication and download loads, per-server card and link
    loads, and per-processor-pair flows.  A producer's output crosses to
    another processor as one stream, at the fastest rate of its
    consumers there; that maximum is recomputed by scanning the
    producer's consumers.  An unassigned neighbour counts as its own
    stream at its own rate.  On a tree every stream has one consumer, so
    its float operations are those of the tree edges.  Mutations
    ({!add_operator}, {!merge}, {!remove_proc}, …) cost
    O(degree) row edits, times the out-degree of the producers on a
    DAG, where the from-scratch path recomputes O(|group|²) sums per
    probe.  The state is flat sorted rows edited in place (DESIGN.md
    §16.1): once its rows have grown, a commit allocates nothing, and a
    probe allocates only its result.

    {!Check.check_graph} remains the oracle: the test suite materialises
    the ledger with {!to_alloc}, runs the oracle and requires the same
    violation set as {!violations} (float loads within 1e-6 relative
    tolerance — incremental sums may differ from the oracle's in the
    last bits).  Aggregates are reset to exact zero whenever their
    contributing-entry count drops to zero, so float drift cannot
    accumulate across long edit sequences.

    Processor ids are ledger-assigned and stable; they are *not*
    compacted when processors are removed.  {!to_alloc} maps live
    processors, in increasing id order, to dense [Alloc] indices. *)

type t

type proc_id = int

(** Result of a hypothetical edit: the would-be demand of the probed
    processor and the would-be *total* flow of every processor pair the
    edit changes, in ascending order of the other processor (only
    changed pairs are listed; unchanged pairs keep their
    already-validated totals). *)
type probe = { demand : Demand.t; pair_flows : (proc_id * float) list }

val create : Insp_tree.Graph.t -> Insp_platform.Platform.t -> t
(** Node [i] of the view is operator [i]; a tree passes
    [Graph.of_app app]. *)

val add_proc : t -> Insp_platform.Catalog.config -> proc_id
val remove_proc : t -> proc_id -> unit
(** Releases all hosted operators and download entries, then deletes the
    processor. *)

val mem_proc : t -> proc_id -> bool
val config : t -> proc_id -> Insp_platform.Catalog.config
val set_config : t -> proc_id -> Insp_platform.Catalog.config -> unit
val operators_of : t -> proc_id -> int list
(** Sorted.  Built once per membership change, then shared. *)

val assignment : t -> int -> proc_id option

val generation : t -> proc_id -> int
(** Monotone per-processor change stamp: bumped by every mutation that
    can alter an observable quantity of the processor — membership and
    download edits, config changes, and pair-flow updates caused by a
    {e neighbour's} membership edit.  A cached probe verdict keyed by
    [(id, generation)] of the involved processors is therefore valid
    exactly while the stamps are unchanged (the candidate-queue
    invalidation protocol, DESIGN.md §16). *)

val add_operator : t -> proc_id -> int -> unit
(** O(degree).  Raises [Invalid_argument] if already assigned. *)

val merge : t -> winner:proc_id -> loser:proc_id -> unit
(** Moves every operator of [loser] onto [winner] and deletes [loser].
    O(sum of moved operators' degrees). *)

(* lint: allow t3 — oracle for test/test_ledger.ml probe predicts commit *)
val demand : t -> proc_id -> Demand.t
(** Current demand of the processor's operator group (download term =
    distinct needed objects, like {!Demand.of_group}). *)

val compute_load : t -> proc_id -> float

val card_load : t -> int -> float
(** Aggregate planned download load (MB/s) against one server's card.
    This is the per-server footprint a multi-tenant service must reclaim
    when an application departs.  Raises [Invalid_argument] for servers
    outside the platform range. *)

val pair_flow : t -> proc_id -> proc_id -> float

val probe_add : t -> proc_id -> int -> probe
(** Would-be state after assigning one unassigned operator.  O(degree);
    does not mutate. *)

val probe_merge : t -> winner:proc_id -> loser:proc_id -> probe
(** Would-be state of [winner] after absorbing [loser].  [pair_flows]
    lists the merged totals towards every third-party neighbour.  A
    producer outside the pair that streams to both sends the merged
    group one stream, at the larger of the two rates, in comm_in and in
    the pair flow alike.  O(neighbour count) on a tree, plus the
    loser's in-edges times the producers' out-degree on a shared DAG;
    does not mutate. *)

val violations : t -> Check.violation list
(** Complete violation list, equivalent to running {!Check.check_graph}
    on {!to_alloc} (processor indices are ledger ids).  O(live state),
    not O(procs²). *)

val of_alloc : Insp_tree.Graph.t -> Insp_platform.Platform.t -> Alloc.t -> t
(** Replays an allocation; processor ids coincide with [Alloc] indices. *)

(* lint: allow t3 — oracle for test/test_ledger.ml ledger violation set matches Check.check *)
val to_alloc : t -> Alloc.t
(** Live processors in increasing id order. *)
