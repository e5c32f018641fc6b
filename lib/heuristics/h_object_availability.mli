(** The Object-Availability operator-placement heuristic (paper §4.1).

    For each basic object [k], [av_k] is the number of servers holding
    it.  Objects are treated in increasing [av_k] (scarcest first); for
    each, the heuristic packs as many al-operators downloading that
    object as possible onto most-expensive processors.  Remaining
    operators are placed Comp-Greedy style (non-increasing [w_i]). *)

val run :
  Insp_util.Prng.t ->
  Insp_tree.Graph.t ->
  Insp_platform.Platform.t ->
  (Builder.t, string) result
