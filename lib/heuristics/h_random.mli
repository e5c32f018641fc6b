(** The Random operator-placement heuristic (paper §4.1).

    While operators remain unassigned, pick one uniformly at random and
    buy the cheapest processor able to host it at the target throughput.
    If none exists, group it with the neighbour (child or parent) sharing
    its most demanding communication edge — selling the neighbour's
    processor if it had one — and buy the cheapest processor for the
    pair; fail if even that is impossible. *)

val run :
  Insp_util.Prng.t ->
  Insp_tree.Graph.t ->
  Insp_platform.Platform.t ->
  (Builder.t, string) result
