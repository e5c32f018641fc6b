(** Cross-module value-level call graph over one build universe's
    typedtrees (DESIGN.md §14) — the shared substrate of the T1–T3
    whole-program rules.

    Node ids are ["Unit.value"] strings ([Insp_mapping__Ledger.probe];
    values of nested modules as ["Unit.Sub.value"]).  Every list in the
    result is sorted, so the graph is a deterministic function of the
    build tree.

    Reference resolution is exact where the typedtree is: local idents
    are matched by unique stamp (shadowing cannot misattribute), and
    dotted paths are chased through [module X = Path] aliases — both
    in-file abbreviations and dune's generated wrapper units — down to
    the defining compilation unit. *)

type site = { file : string; line : int; col : int }
(** Repo-relative source position (the cmt records workspace-relative
    files, which is what findings report). *)

val compare_site : site -> site -> int

type prim =
  | Hash_iter of string
      (** hash-order iteration not under a same-expression sort
          canonicalization (mirrors the parsetree D2 exemption) *)
  | Random_use of string  (** any [Random.*] value *)
  | Wall_clock of string  (** [Sys.time], [Unix.gettimeofday], … *)
(** The nondeterministic primitives T2 tracks. *)

val prim_label : prim -> string
(** The primitive's display name, e.g. ["Hashtbl.fold"]. *)

type event = { prim : prim; at : site; e_allowed : Rule.t list }
(** One primitive occurrence inside a binding body, with the rules
    suppressed at that site (comment directives and [[@lint.allow]]
    attributes in scope). *)

type gref = { target : string; at : site; write : bool; r_allowed : Rule.t list }
(** A resolved reference to another top-level value.  [write] marks
    mutation-primitive applications ([x := …], [Hashtbl.replace t …])
    and field sets whose subject is the target. *)

type spawn = {
  at : site;
  s_allowed : Rule.t list;
  body : gref list;  (** the spawned closure's own resolved references *)
  opaque : bool;
      (** the closure mentions a local function we cannot resolve, so
          its footprint is under-approximated; consumers must fall back
          to the enclosing declaration's whole footprint *)
}
(** A [Domain.spawn] application site. *)

type decl = {
  id : string;  (** node id, ["Unit.value"] *)
  unit_name : string;
  val_name : string;  (** possibly dotted for nested modules *)
  at : site;
  mutable_def : string option;
      (** [Some kind] when the binding constructs mutable state at top
          level — ["ref"], ["array"], ["Hashtbl.t"], … *)
  refs : gref list;
  events : event list;
  spawns : spawn list;
  d_allowed : Rule.t list;  (** suppressions scoped to the whole binding *)
}
(** One top-level value binding (or [let () = …] initializer, named
    ["<init:LINE>"]). *)

type export = {
  e_unit : string;
  e_name : string;
  e_at : site;  (** position of the [val] item in the [.mli] *)
  e_allowed : Rule.t list;
}
(** One [val] declared by a unit's interface — T3's subjects. *)

type t = { decls : decl list; exports : export list }
(** [decls] sorted by id; [exports] by (unit, name). *)

val node_id : unit_name:string -> string -> string

val build : Cmt_loader.t -> t
(** Build the graph.  Comment suppressions are read from each recorded
    source under the loader's [src_root]; a source missing there just
    has no comment directives. *)
