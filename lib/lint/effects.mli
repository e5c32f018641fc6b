(** Bottom-up effect inference over the {!Callgraph} (DESIGN.md §14).

    Every top-level declaration is summarized into the two facts the
    whole-program rules read: the top-level mutable state it touches
    (T1) and a witness of nondeterminism it reaches (T2).  One
    callees-first pass over the strongly connected components of the
    call graph computes them (mutual recursion is the fixpoint case: all
    members of a component share the union of the component's facts).

    Summaries carry {e witnesses} — the concrete primitive occurrence
    and the call chain that reaches it — chosen deterministically
    (shortest chain, ties broken lexicographically), so analysis output
    is byte-stable across runs. *)

type touch = {
  g : string;  (** node id of the top-level mutable state *)
  g_kind : string;  (** ["ref"], ["Hashtbl.t"], … or ["mutated state"] *)
  t_at : Callgraph.site;  (** the direct touching reference *)
  via : string list;  (** call chain from the summarized decl, nearest first *)
  t_write : bool;
  t_allowed : Rule.t list;  (** suppressions in force at the touch site *)
}

type witness = {
  w_label : string;  (** primitive name, e.g. ["Random.int"] *)
  w_at : Callgraph.site;
  w_via : string list;
  w_allowed : Rule.t list;
}

type summary = {
  touched : touch list;  (** deduped per global, sorted by node id *)
  nondet : witness option;
}

type t

val analyze : Callgraph.t -> t

val summary : t -> string -> summary option
(** By declaration node id; [None] for unknown ids. *)
