(** End-to-end heuristic solver: operator placement, then server
    selection, then downgrade, then validation (paper §4).

    The pipeline reads an operator-graph view ({!Insp_tree.Graph}): one
    tree ({!run}) or a DAG shared by several applications ({!run_graph}
    on [Insp_multi.Dag.graph], as [Insp_multi.Dag_place] does).  Every
    returned {!outcome} has passed the full constraint checker
    ({!Insp_mapping.Check.check_graph}); a heuristic that cannot produce
    a feasible allocation reports a {!failure} with the stage that gave
    up. *)

type placer =
  Insp_util.Prng.t ->
  Insp_tree.Graph.t ->
  Insp_platform.Platform.t ->
  (Builder.t, string) result
(** An operator-placement heuristic over the view. *)

type heuristic = private {
  name : string;  (** paper name, e.g. "Subtree-bottom-up" *)
  key : string;  (** short CLI identifier, e.g. "sbu" *)
  place : placer;
  run :
    Insp_util.Prng.t ->
    Insp_tree.App.t ->
    Insp_platform.Platform.t ->
    (Builder.t, string) result;
      (** [place] on [Graph.of_app app]: the placement stage of {!run},
          for callers that replay the pipeline stage by stage *)
  randomized : bool;
      (** true when results depend on the PRNG (Random heuristic and its
          random server selection) *)
}

val make : name:string -> key:string -> randomized:bool -> placer -> heuristic

val sbu : heuristic
(** Subtree-bottom-up, the paper's best heuristic and the default of
    every caller that solves with one heuristic: the element of {!all}
    keyed ["sbu"]. *)

val all : heuristic list
(** The paper's six heuristics, in the paper's order: Random,
    Comp-Greedy, Comm-Greedy, Subtree-bottom-up, Object-Grouping,
    Object-Availability. *)

val find : string -> heuristic option
(** Lookup by [key] or [name] (case-insensitive). *)

type outcome = {
  alloc : Insp_mapping.Alloc.t;
  cost : float;
  n_procs : int;
}

type failure =
  | Placement of string
  | Server_selection of string
  | Validation of string
      (** internal invariant breach: placement and selection succeeded
          but the checker rejected the allocation *)

val failure_message : failure -> string

type selection =
  | Random_servers  (** a random holder per object, drawn from the PRNG *)
  | Three_loop  (** the paper's three-loop selection, deterministic *)

val finish :
  key:string ->
  selection ->
  Insp_util.Prng.t ->
  Insp_tree.Graph.t ->
  Insp_platform.Platform.t ->
  Builder.t ->
  (outcome, failure) result
(** The pipeline after placement: finalize, server selection (the PRNG
    feeds [Random_servers] only), downgrade and the checker, each stage
    under its span and [Phase] event keyed [key].  A finalize failure is
    a [Placement] failure.  Counts no [Solved]/[Solve_failed] decision:
    {!run_graph} does, around it. *)

val run_graph :
  ?seed:int ->
  heuristic ->
  Insp_tree.Graph.t ->
  Insp_platform.Platform.t ->
  (outcome, failure) result
(** Runs the full pipeline on a view whose node [i] is the allocation's
    operator [i].  [seed] (default 0) feeds the PRNG of randomized
    stages; deterministic heuristics ignore it. *)

val run :
  ?seed:int ->
  heuristic ->
  Insp_tree.App.t ->
  Insp_platform.Platform.t ->
  (outcome, failure) result
(** {!run_graph} on [Graph.of_app app]. *)

val run_all :
  ?seed:int ->
  Insp_tree.App.t ->
  Insp_platform.Platform.t ->
  (heuristic * (outcome, failure) result) list
(** Every heuristic on the same instance. *)
