(** Operator-tree structure (paper §2.1).

    Internal nodes are operators; leaves are references to basic-object
    types.  The tree is binary: each operator has at most two inputs in
    total, counting both operator children and object leaves
    ([|Leaf(i)| + |Ch(i)| <= 2]).  Several leaves may reference the same
    object type.

    Operators are identified by dense integer ids [0 .. n_operators-1];
    id assignment is in preorder from the root, so the root is always
    operator [0]. *)

type spec =
  | Obj of int  (** a leaf: basic-object type index *)
  | Op1 of spec  (** unary operator *)
  | Op of spec * spec  (** binary operator *)

type node = private {
  id : int;
  parent : int option;  (** [None] for the root *)
  children : int list;  (** operator children ids (Ch(i)), <= 2 *)
  leaves : int list;  (** basic-object type indices (Leaf(i)), <= 2 *)
}

type t

val of_spec : n_object_types:int -> spec -> t
(** Builds a tree from a spec.  Raises [Invalid_argument] if the spec
    root is a bare object, or if any object index is outside
    [\[0, n_object_types)]. *)

val of_arrays :
  n_object_types:int ->
  parent:int option array ->
  children:int list array ->
  leaves:int list array ->
  t
(** Builds a tree directly from per-operator arrays (index = operator
    id), for generators that assemble large trees without a recursive
    {!spec}.  Re-checks every structural invariant and raises
    [Invalid_argument] on any violation (including non-preorder ids). *)

val n_operators : t -> int

val n_object_types : t -> int

val root : t -> int
(** Always [0]. *)

val nodes : t -> node array
(** Every operator's node, indexed by id: the tree's own array, shared
    so that hot loops read a node without a call per field.  Callers
    must not mutate it. *)

val parent : t -> int -> int option

val children : t -> int -> int list

val leaves : t -> int -> int list
(** Object types the operator downloads directly (Leaf(i)). *)

val al_operators : t -> int list
(** In increasing id order. *)

(* lint: allow t3 — oracle for test/test_tree.ml preorder ids and test/oracles.ml exact_solve *)
val preorder : t -> int list
(** Root first. *)

val postorder : t -> int list
(** Children before parents; the root is last. *)

val height : t -> int
(** Maximum operator depth. *)

val object_popularity : t -> int array
(** [popularity.(k)] = number of operators whose leaf set contains object
    type [k] (paper's Object-Grouping popularity count).  Multiple leaves
    of the same type under one operator count once. *)

val leaf_instances : t -> (int * int) list
(** All [(operator, object_type)] leaf pairs, one per leaf occurrence. *)

val to_spec : t -> spec
(** Inverse of {!of_spec} up to id assignment and input order (object
    leaves are listed before operator children): rebuilding with
    [of_spec] yields the same computation with the same shape. *)

val left_deep : n_operators:int -> objects:int array -> t
(** Builds a left-deep tree (paper Fig. 1(b)): operator [i] has operator
    [i+1] as its left input (except the deepest, which has two object
    leaves) and one object leaf.  [objects] supplies the leaf object
    types from the root's leaf downward and must have length
    [n_operators + 1].  Requires [n_operators >= 1]. *)

val pp : Format.formatter -> t -> unit
