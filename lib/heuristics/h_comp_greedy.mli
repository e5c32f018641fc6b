(** The Comp-Greedy operator-placement heuristic (paper §4.1).

    Operators are treated in non-increasing computational demand
    [rate_i * w_i] ([rho * w_i] on a tree, hence the work order).
    Each round buys the most expensive processor for the heaviest
    unassigned operator (with the Random heuristic's grouping fallback if
    it does not fit), then fills the remaining capacity with further
    unassigned operators in the same order.

    Both the round seeds and the fill walk come from one {!Rank} walker
    over the static demand-descending order (DESIGN.md §16): the seed is
    the first unassigned operator of the order, and the fill follows the
    order with a path-compressed dead-skip plus a binary-search
    fast-forward past compute-infeasible candidates.  Only probes that
    are certain to be rejected are skipped, so the placement equals
    re-sorting the unassigned pool every round and probing every
    candidate. *)

val run :
  Insp_util.Prng.t ->
  Insp_tree.Graph.t ->
  Insp_platform.Platform.t ->
  (Builder.t, string) result
