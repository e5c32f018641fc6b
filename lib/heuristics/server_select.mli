(** Server-selection heuristics (paper §4.2).

    After placement, each processor must pick which server to download
    each of its basic objects from, respecting server card capacity
    (constraint (3)) and server-to-processor link capacity (constraint
    (4)).  Selection reads an operator-graph view ({!Insp_tree.Graph}):
    one tree, or a DAG shared by several applications.  [groups.(u)]
    lists the view's nodes on processor [u], which needs one download
    of every distinct object type they read, at the object's rate.

    {!random_graph} (used with the Random placement heuristic) draws a
    server uniformly among the capable providers of each object.

    {!sophisticated_graph} (used with all the others) runs the paper's three
    loops: (1) downloads of objects held by a single server are forced —
    failure here aborts the heuristic; (2) servers carrying exactly one
    object type absorb as many of that object's downloads as possible;
    (3) remaining downloads are assigned treating objects in decreasing
    [nbP/nbS] (processors still needing the object over servers still
    able to provide it) and choosing, per download, the server with the
    largest remaining [min(card, link)] capacity. *)

type plan = (int * int) list array
(** Per processor group: one (object type, server) pair per distinct
    object type the group needs. *)

val random_graph :
  Insp_util.Prng.t ->
  Insp_tree.Graph.t ->
  Insp_platform.Platform.t ->
  groups:int list array ->
  (plan, string) result

val sophisticated_graph :
  Insp_tree.Graph.t ->
  Insp_platform.Platform.t ->
  groups:int list array ->
  (plan, string) result

val random :
  Insp_util.Prng.t ->
  Insp_tree.App.t ->
  Insp_platform.Platform.t ->
  groups:int list array ->
  (plan, string) result
(** {!random_graph} on [Graph.of_app app]. *)

val sophisticated :
  Insp_tree.App.t ->
  Insp_platform.Platform.t ->
  groups:int list array ->
  (plan, string) result
(** {!sophisticated_graph} on [Graph.of_app app]. *)
