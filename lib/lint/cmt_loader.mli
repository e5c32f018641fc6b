(** Discovery and decoding of the [.cmt]/[.cmti] typedtrees dune emits
    under [_build] — the input of the whole-program analyses (T1–T3,
    DESIGN.md §14).

    Unlike the per-file parsetree pass, which re-parses sources, the
    deep pass reuses the compiler's own elaborated, type-resolved trees:
    identifier references arrive as fully resolved [Path.t]s, so
    cross-module reasoning needs no name resolution of its own. *)

exception Cmt_error of string
(** Raised on unreadable files (wrong compiler version, IO errors) and
    when no [.cmt] exists under the root at all — both are exit-2
    conditions for the driver, with the message explaining the fix
    ([dune build @check] / [make lint-deep]). *)

type unit_info = {
  name : string;  (** compilation unit name, e.g. [Insp_mapping__Ledger] *)
  src : string option;
      (** implementation source, repo-relative (["lib/mapping/ledger.ml"]);
          dune-generated alias modules report their [.ml-gen] file *)
  intf_src : string option;  (** interface source ([.mli]), when one exists *)
  impl : Typedtree.structure option;  (** from the [.cmt] *)
  intf : Typedtree.signature option;  (** from the [.cmti] *)
}

type t = {
  units : unit_info list;  (** sorted by unit name; [.cmt]/[.cmti] paired *)
  stale : string list;
      (** sources strictly newer than their typedtree — the build is out
          of date and findings would point at vanished code *)
  src_root : string;  (** where the recorded source paths resolve *)
}

val normalize : string -> string
(** Drop empty, ["."] and [".."] path segments: ["../lib/x.ml"] →
    ["lib/x.ml"].  Findings and the baseline key on paths in this
    form. *)

val source_root : string -> string
(** The directory the sources recorded in the typedtrees under a root
    are relative to: the workspace root for a dune build context
    ([R/_build/default] gives [R]), else the root itself (a tree
    compiled in place). *)

val load : root:string -> unit -> t
(** Read every typedtree under [root].  Recorded sources resolve under
    [source_root root]: that is where they are checked for staleness
    and where {!Callgraph.build} reads them.
    A missing source (e.g. a generated [.ml-gen]) is simply not
    checked. *)
