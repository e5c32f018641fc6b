(** Operator-tree structure (paper §2.1).

    Internal nodes are operators; leaves are references to basic-object
    types.  The tree is binary: each operator has at most two inputs in
    total, counting both operator children and object leaves
    ([|Leaf(i)| + |Ch(i)| <= 2]).  Several leaves may reference the same
    object type.

    Operators are identified by dense integer ids [0 .. n_operators-1];
    id assignment is in preorder from the root, so the root is always
    operator [0].  The structure is stored once, as the flat int rows of
    {!t}: no per-operator record, so a {!Graph} view of the tree shares
    them instead of copying. *)

type spec =
  | Obj of int  (** a leaf: basic-object type index *)
  | Op1 of spec  (** unary operator *)
  | Op of spec * spec  (** binary operator *)

type t = private {
  n_object_types : int;
  child_start : int array;
  child : int array;
      (** operator children (Ch(i)) of [i], in input-slot order:
          [child.(child_start.(i)) .. child.(child_start.(i + 1) - 1)] *)
  parent_start : int array;
  parent : int array;
      (** the parent of [i], as a row of [parent_start] like [child]'s:
          empty for the root, one entry for every other operator *)
  leaf_start : int array;
  leaf : int array;
      (** basic-object type indices (Leaf(i)) of [i], in input-slot
          order, rows of [leaf_start] *)
}
(** The structure as flat int rows, the layout {!Graph} reads: each
    [_start] array has [n_operators + 1] entries, and row [i] is the
    slice between [start.(i)] and [start.(i + 1)].  Read-only: callers
    must not mutate the arrays. *)

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
    [Invalid_argument] on any violation: arity, object range, child and
    parent links that disagree, an operator the root does not reach, or
    ids out of preorder. *)

val n_operators : t -> int

val n_object_types : t -> int

val root : t -> int
(** Always [0]. *)

val parent : t -> int -> int option

val leaves : t -> int -> int list
(** Object types the operator downloads directly (Leaf(i)): row [i] of
    [leaf] as a list (allocates). *)

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
