(** The Object-Grouping operator-placement heuristic (paper §4.1).

    The popularity of a basic object is the number of operators needing
    it.  Al-operators are treated in non-increasing total popularity of
    their objects: each round buys a most-expensive processor for the
    first remaining al-operator, packs onto it the other al-operators
    sharing basic objects with it (by non-increasing popularity), then as
    many non-al operators as possible.  Leftover non-al operators are
    placed Comp-Greedy style. *)

val run :
  Insp_util.Prng.t ->
  Insp_tree.Graph.t ->
  Insp_platform.Platform.t ->
  (Builder.t, string) result
