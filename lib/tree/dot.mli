(** Graphviz export of operator trees, for documentation and debugging. *)

val of_app : App.t -> string
(** DOT digraph with operators as boxes, each annotated by [w_i] and
    [delta_i], and object leaves as ellipses. *)

val save : string -> string -> unit
(** [save dot path] writes the DOT text to [path]. *)
