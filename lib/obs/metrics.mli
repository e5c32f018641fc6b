(** Deterministic metric registry (DESIGN.md §10).

    Counters, gauges and fixed-bucket histograms keyed by name.  A
    metric is created on first use with the kind of that first call;
    mixing kinds under one name raises [Invalid_argument].  Snapshots
    list metrics in insertion order, so identical instrumented work
    yields byte-identical snapshots — no clock, no PRNG, no hash-order
    dependence. *)

type histogram = private {
  edges : float array;  (** ascending bucket upper bounds *)
  counts : int array;
      (** one count per edge ([v <= edge], first match) plus a final
          overflow bucket *)
  mutable observations : int;
  mutable sum : float;
}

type value =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of histogram

type t

val create : unit -> t

val incr : ?by:int -> t -> string -> unit
(** Bump a monotonic counter (created at 0). *)

val set_gauge : t -> string -> float -> unit
(** Record the latest value of a gauge. *)

val observe : t -> string -> float -> unit
(** Add one observation to a histogram.  Every histogram has the same
    edges: 1, 2, 5, 10, 20, 50, 100, 500 (plus overflow). *)

val counter : t -> string -> int option

val merge : into:t -> t -> unit
(** [merge ~into src] folds every metric of [src] into [into], in
    [src]'s insertion order: counters add (registering at 0 if absent,
    so name order is preserved), gauges overwrite (last writer wins, as
    in sequential execution), histograms add bucket-wise.  Raises
    [Invalid_argument] on a kind mismatch.  [src] is not modified. *)

val snapshot : t -> (string * value) list
(** All metrics, in insertion order. *)
