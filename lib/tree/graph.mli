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

    Trees and DAGs share one layout: three tables of int rows
    (compressed sparse rows) for producers, consumers and leaves, read
    by index ({!producer}, {!consumer}, {!leaf}) or, in hot loops,
    straight from the fields; no accessor returns a list.  Two
    producers build views: {!of_app}, which shares the application's
    own arrays and its tree's rows ({!Optree.t}) in O(1), and
    [Insp_multi.Dag.graph], through {!make}, whose rows the DAG fills
    from its node inputs. *)

type t = private {
  rates : float array;
  rate_stride : int;
      (** node [i] runs at [rates.(i * rate_stride)]: a tree's view holds
          its one rho with stride [0], so no node-sized array is built *)
  work : float array;  (** Mops per evaluation *)
  output : float array;  (** MB per evaluation *)
  roots : int array;  (** one per application, in application order *)
  objects : Objects.t;
  prod_start : int array;
  prod : int array;
      (** producers of [i] in input-slot order, repeats kept:
          [prod.(prod_start.(i)) .. prod.(prod_start.(i + 1) - 1)] *)
  cons_start : int array;
  cons : int array;
      (** consumers, ascending and duplicate-free, rows as [prod]'s *)
  leaf_start : int array;
  leaf : int array;
      (** object types downloaded, in input-slot order, repeats kept,
          rows as [prod]'s *)
  unshared : bool;
      (** no node has two consumers (every tree, a DAG without common
          sub-expressions): each crossing edge is its own stream *)
}
(** Read-only: the arrays are the model's own, and callers must not
    mutate them.  Hot loops read the fields directly, without a call.
    Each [_start] array has [n_nodes + 1] entries. *)

val of_app : App.t -> t
(** Children are producers, the parent is the one consumer, operator [0]
    is the root and every node runs at [App.rho].  O(1): the rows are
    the tree's own ({!Optree.t}), shared, not copied. *)

val make :
  rates:float array ->
  work:float array ->
  output:float array ->
  prod_start:int array ->
  prod:int array ->
  cons_start:int array ->
  cons:int array ->
  leaf_start:int array ->
  leaf:int array ->
  roots:int array ->
  objects:Objects.t ->
  t
(** A view over per-node arrays and rows laid out as in {!t}, shared,
    never written.  A node has at most two inputs (producers and leaves
    together), and each consumer row must be ascending and
    duplicate-free. *)

val scale_rates : t -> float -> t
(** [scale_rates g f]: the view with every node's rate multiplied by
    [f], sharing every other array.  On a tree's view it gives the rates
    of [of_app (App.make ~rho:(App.rho app *. f) ...)] bit for bit. *)

val n_nodes : t -> int

val n_producers : t -> int -> int

val producer : t -> int -> int -> int
(** [producer g i k], [0 <= k < n_producers g i], in input-slot order;
    a DAG node may read one producer in two slots. *)

val n_consumers : t -> int -> int

val consumer : t -> int -> int -> int
(** [consumer g i k], [0 <= k < n_consumers g i], ascending in [k]. *)

val n_leaves : t -> int -> int

val leaf : t -> int -> int -> int
(** [leaf g i k], [0 <= k < n_leaves g i]: the object types node [i]
    downloads, in input-slot order, repeats kept. *)

val rate : t -> int -> float
(** Evaluations/s of node [i].  Hot loops read [rates] directly: a
    float returned across compilation units is boxed. *)

val read_before : t -> int -> int -> int -> bool
(** [read_before g i j k]: whether [j] is among the first [k] producers
    of [i].  A node reading one producer in two slots has one edge to
    it, taken at the first slot. *)

val object_before : t -> int -> int -> int -> bool
(** [object_before g i o k]: whether object type [o] is among the first
    [k] leaves of [i]; with [k = n_leaves g i], whether [i] downloads
    [o]. *)

val fastest : t -> int -> (int -> bool) -> int
(** [fastest g j f]: the consumer of [j] accepted by [f] whose rate is
    that of [j]'s stream to them, i.e. the fastest, the first in id
    order among equals; [-1] when [f] accepts none.  O(out-degree). *)

val distinct_objects : t -> int list -> int list
(** Distinct object types the given nodes download, ascending. *)

val object_rows : t -> int array -> int -> int array * int array
(** [object_rows g hosts n]: for every row [u < n], the distinct object
    types downloaded by the nodes [i] with [hosts.(i) = u], ascending,
    as one flat table [(start, types)]: row [u] is [types.(start.(u))
    .. types.(start.(u + 1) - 1)].  A node beyond [hosts] or with a
    negative entry is in no row. *)

val object_rows_counted :
  t -> int array -> int -> int array -> int array * int array
(** [object_rows_counted g hosts n count]: {!object_rows} for a caller
    whose own sweep over the nodes already summed, into
    [count.(u + 1)] of an [n + 1]-entry array of zeros, the leaf counts
    [n_leaves g i] of the nodes hosted on each row [u].  [count] is
    reused as the returned [start]. *)
