(** A candidate solution: the processors bought, the operator assignment
    [a : N -> P] and the download plan [DL(u)] (paper §2.3). *)

type proc = {
  config : Insp_platform.Catalog.config;  (** purchased configuration *)
  operators : int list;  (** a-bar(u): operators mapped here, sorted *)
  downloads : (int * int) list;
      (** DL(u): (object type, server) pairs, sorted; normally one entry
          per object type.  Exact duplicate pairs are collapsed on
          construction; the same object type from two different servers
          is representable but flagged by the checker
          ([Check.Duplicate_download]). *)
}

type t

val make : proc array -> t
(** Builds an allocation from processor descriptions.  Raises
    [Invalid_argument] when an operator appears on two processors or
    has a negative id.
    Exact duplicate download entries are deduplicated. *)

val of_groups :
  configs:Insp_platform.Catalog.config array ->
  groups:int list array ->
  downloads:(int * int) list array ->
  t
(** Convenience constructor from parallel arrays. *)

val n_procs : t -> int

val proc : t -> int -> proc

val procs : t -> proc array

val assignment : t -> int -> int option
(** [assignment t i] is the processor index hosting operator [i], if
    assigned. *)

val host : t -> int -> int
(** [host t i] is {!assignment} as a dense index, [-1] when [i] is
    unassigned; allocation-free. *)

val hosts : t -> int array
(** The dense assignment behind {!host}, shared for hot loops: entry [i]
    is operator [i]'s processor or [-1]; operators beyond its length are
    unassigned.  Callers must not mutate it. *)

val operators_of : t -> int -> int list
(** Operators on processor [u] (a-bar(u)). *)

val downloads_of : t -> int -> (int * int) list

val all_downloads : t -> (int * int * int) list
(** All [(proc, object_type, server)] triples. *)

val with_config : t -> int -> Insp_platform.Catalog.config -> t
(** Functional update of one processor's configuration (downgrade
    step). *)

val with_configs : t -> Insp_platform.Catalog.config array -> t
(** Replaces every processor's configuration in one structural copy —
    the downgrade pass over a large allocation would otherwise pay one
    O(procs) array copy per processor.  The array is indexed by
    processor and must cover all of them. *)

val pp : Format.formatter -> t -> unit
