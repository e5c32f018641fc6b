(** Operator DAGs for concurrent applications (paper §6, future work):
    "the study of the case when multiple applications must be executed
    simultaneously so that a given throughput must be achieved for each
    application.  In this case a clear opportunity for higher performance
    with a reduced cost is the reuse of common sub-expressions between
    trees."

    A DAG node is an operator with up to two inputs (basic objects or
    other nodes) and {e one or more} consumers: other nodes and/or
    application roots.  Each application demands its own throughput; a
    shared node must therefore be evaluated at the {e maximum} rate of
    its consumers (a faster consumer cannot reuse stale slower-rate
    results, while a slower consumer can subsample a faster stream).

    Nodes are identified by dense ids; ids are in topological order
    (inputs before consumers). *)

type input = Object of int | Node of int

type node = private {
  id : int;
  inputs : input list;  (** 1 or 2 entries *)
  rate : float;  (** evaluations per second this node must sustain *)
  work : float;  (** Mops per evaluation *)
  output : float;  (** MB per evaluation *)
}

type t

val n_nodes : t -> int

val node : t -> int -> node
val inputs : t -> int -> input list

val topological : t -> int list
(** All ids, inputs before consumers. *)

val graph : t -> Insp_tree.Graph.t
(** The DAG as an operator-graph view (built once with the DAG): node
    [i]'s producers are its [Node] inputs in slot order, its leaves its
    [Object] inputs, and the roots the applications' sinks.  The
    checker ({!Insp_mapping.Check.check_graph}), the downgrade step and
    the runtime read it, so a DAG allocation is judged and executed by
    the same code as a tree's. *)

(** {2 Construction} *)

type builder

val create_builder : n_object_types:int -> builder

val add_node : builder -> inputs:input list -> int
(** Appends a node (mutating the builder) and returns its id.  Inputs
    must reference existing nodes or valid object types; 1 or 2 inputs. *)

val finish :
  builder ->
  objects:Insp_tree.Objects.t ->
  alpha:float ->
  ?base_work:float ->
  ?work_factor:float ->
  roots:(int * float) list ->
  unit ->
  t
(** Computes output sizes and work bottom-up with the standard model
    [w = base_work + work_factor * (sum of input sizes)^alpha], and each
    node's rate as the maximum over its consumers' rates and the rhos of
    the applications it feeds.  Raises [Invalid_argument] on dangling
    ids, empty or non-positive-rho roots, or nodes feeding nothing. *)

val of_apps : Insp_tree.App.t list -> t
(** Translate independent applications into one DAG {e without} any
    sharing (each tree keeps its own nodes).  All applications must use
    the same object catalog, alpha and work constants.  Baseline for the
    CSE comparison. *)

(** {2 Execution} *)

val simulate :
  ?horizon:float ->
  ?warmup:float ->
  ?disruptions:Insp_sim.Runtime.disruption list ->
  t ->
  Insp_platform.Platform.t ->
  Insp_mapping.Alloc.t ->
  Insp_sim.Runtime.report
(** Executes a DAG allocation in the discrete-event runtime
    ({!Insp_sim.Runtime.run_graph} on {!graph}), with the defaults of
    {!Insp_sim.Runtime.run}.  A shared node is evaluated once per result
    and its output streams to each consuming processor once, however
    many consumers live there, exactly as the checker accounts
    bandwidth.  Every application root is measured, so the report's
    throughput and completed count are the slowest root's and
    [Insp_sim.Runtime.sustains_target] means every application meets
    its rho.

    All node rates must be equal, which {!finish} guarantees whenever
    all applications share one rho.  Mixed-rate DAGs would need
    subsampled consumption semantics and are rejected with
    [Invalid_argument]. *)
