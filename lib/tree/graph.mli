(** A read-only operator-graph view: the one shape the feasibility
    checker, the downgrade step and the discrete-event runtime read, for
    one operator tree or a DAG shared by several applications (Benoit et
    al., multi-application follow-up, PAPERS.md).

    Node [i] is operator [i] of the model and of its allocations.  A
    node has a rate (evaluations/s), work (Mops) and output (MB) per
    evaluation, producers in input-slot order, consumers in ascending id
    order and object leaves; roots are the applications' sinks.  A
    node's output crosses to another processor as one stream per
    destination processor, at the fastest rate of its consumers there.
    A tree is the case with at most one consumer per node and one rate.

    Two producers build views: {!of_app}, which reads the application's
    own arrays and tree without a node-sized copy, and
    [Insp_multi.Dag.graph], through {!make}. *)

type links

type t = private {
  rates : float array;
  rate_stride : int;
      (** node [i] runs at [rates.(i * rate_stride)]: a tree's view holds
          its one rho with stride [0], so no node-sized array is built *)
  work : float array;  (** Mops per evaluation *)
  output : float array;  (** MB per evaluation *)
  roots : int array;  (** one per application, in application order *)
  objects : Objects.t;
  links : links;
}
(** Read-only: the arrays are the model's own, and callers must not
    mutate them.  Hot loops read the fields directly, without a call. *)

val of_app : App.t -> t
(** Children are producers, the parent is the one consumer, operator [0]
    is the root and every node runs at [App.rho]. *)

val make :
  rates:float array ->
  work:float array ->
  output:float array ->
  producers:int list array ->
  consumers:int array array ->
  leaves:int list array ->
  roots:int array ->
  objects:Objects.t ->
  t
(** A view over per-node arrays, shared, never written.
    [consumers.(i)] must be ascending and duplicate-free. *)

val scale_rates : t -> float -> t
(** [scale_rates g f]: the view with every node's rate multiplied by
    [f], sharing every other array.  On a tree's view it gives the rates
    of [of_app (App.make ~rho:(App.rho app *. f) ...)] bit for bit. *)

val n_nodes : t -> int

val producers : t -> int -> int list
(** In input-slot order; a DAG node may read one producer twice. *)

val n_consumers : t -> int -> int

val consumer : t -> int -> int -> int
(** [consumer g i k], [0 <= k < n_consumers g i], ascending in [k].  An
    index, not a list: a tree stores an optional parent, which a list
    would allocate on every read. *)

val rate : t -> int -> float
(** Evaluations/s of node [i].  Hot loops read [rates] directly: a
    float returned across compilation units is boxed. *)

val distinct_producers : t -> int -> int list
(** {!producers}, each once, in first-slot order.  Allocates only for a
    node that reads one producer twice. *)

val read_before : int -> int list -> int -> bool
(** [read_before j ps k]: whether [j] is among the first [k] entries of
    the producer list [ps].  A node reading one producer in two slots
    has one edge to it, taken at the first slot. *)

val fastest : t -> int -> (int -> bool) -> int
(** [fastest g j f]: the consumer of [j] accepted by [f] whose rate is
    that of [j]'s stream to them, i.e. the fastest, the first in id
    order among equals; [-1] when [f] accepts none.  O(out-degree). *)

val unshared : t -> bool
(** No node has two consumers (every tree, a DAG without common
    sub-expressions): each crossing edge is its own stream. *)

val leaves : t -> int -> int list

val distinct_objects : t -> int list -> int list
(** Distinct object types the given nodes download, ascending. *)

val object_rows : t -> int array -> int -> int array * int array
(** [object_rows g hosts n]: for every row [u < n], the distinct object
    types downloaded by the nodes [i] with [hosts.(i) = u], ascending,
    as one flat table [(start, types)]: row [u] is [types.(start.(u))
    .. types.(start.(u + 1) - 1)].  A node beyond [hosts] or with a
    negative entry is in no row. *)
