(** Union–find (disjoint sets) with path compression and union by rank. *)

type t

val create : int -> t
(** [create n] makes [n] singleton sets labelled [0 .. n-1]. *)

val union : t -> int -> int -> int
(** [union t a b] merges the two sets and returns the representative of
    the merged set.  Merging an element with itself is a no-op. *)

val same : t -> int -> int -> bool

val size : t -> int -> int
(** Number of elements in the element's set. *)

val groups : t -> int list list
(** All sets, each as a sorted list of members; group order is by
    smallest member. *)
