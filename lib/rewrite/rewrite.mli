(** Mutable applications (paper §6, future work): "the study of
    applications that are mutable, i.e., whose operators can be
    rearranged based on operator associativity and commutativity rules"
    (after Chen, DeWitt & Naughton [5]).

    Operators are associative and commutative aggregations, so any
    binary tree over the same multiset of basic-object leaves computes
    the same final result — but intermediate input sizes, and therefore
    the per-operator work [w_i = base + factor*(input)^alpha] and the
    communication volumes, differ by shape.  Left-deep chains accumulate
    mass early (the paper's Fig. 1(b) shape); balanced trees keep
    intermediate inputs small.  This module searches the shape space for
    the cheapest-to-provision equivalent tree. *)

val balanced_of : Insp_tree.Optree.t -> Insp_tree.Optree.t
(** The balanced tree over the same leaf multiset. *)

val left_deep_of : Insp_tree.Optree.t -> Insp_tree.Optree.t
(** The left-deep chain over the same leaf multiset. *)

val optimize :
  Insp_util.Prng.t ->
  evaluate:(Insp_tree.Optree.t -> float option) ->
  ?steps:int ->
  ?restarts:int ->
  Insp_tree.Optree.t ->
  Insp_tree.Optree.t * float option
(** Hill-climbing over single associativity rotations
    ([(a . b) . c -> a . (b . c)] and its mirror, at every binary
    operator with a binary child; the leaf multiset is preserved):
    [evaluate] returns the provisioning
    cost of a shape ([None] = infeasible).  Starting from the given tree
    (and [restarts] extra random-rotation starts, default 2), repeatedly
    moves to the best strictly-improving neighbour, up to [steps]
    (default 50) moves per start.  Returns the best shape found and its
    cost ([None] if every evaluated shape was infeasible). *)
