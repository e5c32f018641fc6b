(** The Comm-Greedy operator-placement heuristic (paper §4.1).

    Edges are treated in non-increasing communication weight: the
    producer's output [delta] at the consumer's rate ([rho * delta_child]
    on a tree).  For each edge the two endpoint operators are
    grouped on one processor whenever possible:

    - both unassigned: buy the cheapest processor hosting both, falling
      back to one most-expensive processor for each endpoint;
    - one assigned: try to fit the other on the same processor, else buy
      it a most-expensive processor;
    - both assigned to different processors: try to merge the two groups
      onto either processor and sell the other; keep the current
      assignment if neither direction fits. *)

val run :
  Insp_util.Prng.t ->
  Insp_tree.Graph.t ->
  Insp_platform.Platform.t ->
  (Builder.t, string) result

val with_merge_sweeps : bool -> (unit -> 'a) -> 'a
(** Run a thunk with the case-(iii) merge sweeps toggled (false = the
    paper's literal one-pass edge processing).  For the ablation bench;
    restores the previous value on exit.  Not thread-safe. *)
