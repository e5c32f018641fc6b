(** Flow-level discrete-event execution of a deployed mapping.

    The paper evaluates mappings analytically (constraints (1)–(5)); this
    runtime actually {e executes} them in simulation and measures the
    throughput the deployment sustains, validating the analytic model:

    - each processor runs its operators' evaluations one at a time
      (evaluation of operator [i] takes [w_i / s_u] seconds);
    - an evaluation of result [t] starts once every input operator's
      result [t] is available locally (co-located producers) or has
      arrived over the network (remote producers);
    - cross-processor results travel as flows of [delta_i] MB sharing
      bandwidth max-min fairly under the bounded multi-port model
      ({!Fair_share_inc}): sender card, receiver card and the
      point-to-point link constrain each flow.  A result crosses to a
      processor once, however many of its consumers live there;
    - every processor re-downloads each basic object in its plan from its
      chosen server once per refresh period ([1/f_k]), as competing
      flows;
    - the pipeline free-runs with a bounded work-ahead window, so the
      measured completion rate at the root converges to the deployment's
      maximum sustainable throughput.

    The same core executes operator DAGs shared by several applications
    ({!run_graph}, on the operator-graph view {!Insp_tree.Graph} that
    the checker reads); a tree is the case with one consumer per node
    and one root.

    A mapping accepted by {!Insp_mapping.Check} sustains at least the
    target [rho]; an overloaded mapping falls measurably short — tests
    assert both directions. *)

type report = {
  sim_time : float;  (** simulated seconds *)
  results_completed : int;
      (** root results over the whole run (the minimum over roots) *)
  achieved_throughput : float;
      (** root results per second over the post-warmup window (the
          minimum over roots) *)
  target_throughput : float;  (** the application's rho *)
  proc_busy : float array;  (** per-processor busy fraction *)
  download_delivered : float;  (** MB of basic-object refresh delivered *)
  download_ideal : float;
      (** MB that would be delivered at the nominal refresh rates *)
  events : int;  (** discrete events processed *)
  root_completions : float array;
      (** ascending timestamps of every root-result completion, all
          roots merged — the raw signal the fault engine turns into
          throughput dips and recovery times *)
}

val sustains_target : report -> bool
(** [achieved_throughput >= 0.95 * rho] — the 5% margin absorbs pipeline
    fill and scheduling granularity, which the paper's fluid model does
    not account for. *)

(** {1 Capacity disruptions (fault injection)}

    A disruption multiplies the nominal capacity of every matching
    bandwidth constraint by [d_factor] over the window
    [[d_from, d_until)]: card jitter ([Proc_card]), a data-server
    outage ([Server_card] with factor ~0) or a degraded link.  Windows
    may overlap (factors multiply) and are applied through
    {!Fair_share_inc.set_capacity}, so only the affected component is
    re-waterfilled.  An empty disruption list leaves the run
    bit-identical to one without the parameter. *)

type scope =
  | Proc_card of int  (** processor [u]'s network card *)
  | Server_card of int  (** data server [l]'s card *)
  | Proc_link of int * int
      (** the processor pair's link, both directions *)
  | Server_link of int * int  (** the (server, processor) link *)

type disruption = {
  d_scope : scope;
  d_from : float;
  d_until : float;  (** capacity restored at this instant *)
  d_factor : float;  (** multiplier on the nominal capacity, >= 0 *)
}

val run :
  ?horizon:float ->
  ?warmup:float ->
  ?disruptions:disruption list ->
  Insp_tree.App.t ->
  Insp_platform.Platform.t ->
  Insp_mapping.Alloc.t ->
  report
(** The pipeline work-ahead (results in flight beyond the last root
    completion) is bounded by a window of [max 8 (2 * n_procs)]
    results, which scales with the number of processors so the bound
    never throttles a deep pipeline.  [horizon] (default 80 simulated
    seconds) and [warmup] (default a quarter of the horizon) frame the
    measurement.
    [disruptions] (default none) injects capacity faults mid-run; see
    {!disruption}.  Requires every operator assigned (checker-valid
    structure); capacity violations are allowed and simply show up as
    reduced throughput. *)

(** {1 Operator graphs} *)

val run_graph :
  ?horizon:float ->
  ?warmup:float ->
  ?disruptions:disruption list ->
  Insp_tree.Graph.t ->
  Insp_platform.Platform.t ->
  Insp_mapping.Alloc.t ->
  report
(** {!run} on an operator graph ({!Insp_tree.Graph}) whose node [i] is
    the allocation's operator [i]; {!run} is this on
    {!Insp_tree.Graph.of_app}.  The work-ahead window trails the slowest
    root, and the target is the first root's rate.  Every node must run
    at that one rate: mixed rates would need subsampled consumption
    ([Insp_multi.Dag.simulate] rejects them). *)

val pp_report : Format.formatter -> report -> unit
