(** Random application generation following the paper's methodology (§5):
    random binary operator trees whose leaves are basic objects drawn
    uniformly among a fixed number of object types. *)

val random_shape : Insp_util.Prng.t -> n_operators:int -> n_object_types:int -> Optree.t
(** [random_shape rng ~n_operators ~n_object_types] builds a uniformly
    recursive random binary tree with exactly [n_operators] internal
    nodes; every operator has exactly two inputs (operator children or
    object leaves), so the tree has [n_operators + 1] leaf instances.
    Leaf object types are drawn uniformly.  Requires [n_operators >= 1]
    and [n_object_types >= 1]. *)

val random_sizes : Insp_util.Prng.t -> n_object_types:int -> lo:float -> hi:float -> float array
(** One uniformly drawn size per object type, in MB. *)
