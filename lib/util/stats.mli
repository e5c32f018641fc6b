(** Descriptive statistics over float samples.

    Used by the experiment harness to aggregate heuristic costs over random
    seeds, and by the simulator to summarise measured throughput. *)

type summary = {
  count : int;
  mean : float;
  stddev : float;  (** sample standard deviation (n-1 denominator) *)
  min : float;
  max : float;
  median : float;
}

val mean : float list -> float
(** Arithmetic mean.  Raises [Invalid_argument] on the empty list — the
    same contract as every other aggregate here, so an empty sample set
    fails loudly instead of reading as a zero cost. *)

val variance : float list -> float
(** Unbiased sample variance (n-1 denominator).  Raises
    [Invalid_argument] on the empty list; returns 0 for a single sample
    (the estimator is undefined at n = 1, and 0 is the conventional
    "no observed spread" answer). *)

val stddev : float list -> float
(** [sqrt (variance samples)]; same domain as {!variance}. *)

val sorted : float list -> float array
(** Fresh array of the samples in ascending order via [Float.compare],
    so NaN has a specified position (before every number) rather than
    the unspecified result polymorphic compare gives on floats. *)

val minimum : float list -> float
(** Requires a non-empty list. *)

val maximum : float list -> float
(** Requires a non-empty list. *)

val median : float list -> float
(** Requires a non-empty list; averages the two middle elements for even
    lengths. *)

val percentile : float -> float list -> float
(** [percentile p samples] with [p] in [\[0, 100\]], linear interpolation
    between closest ranks.  Requires a non-empty, NaN-free list (raises
    [Invalid_argument] otherwise). *)

val summarize : float list -> summary
(** Requires a non-empty, NaN-free list (raises [Invalid_argument]
    otherwise). *)

val geometric_mean : float list -> float
(** Requires a non-empty list of strictly positive samples; raises
    [Invalid_argument] otherwise. *)

(* lint: allow t3 — float-comparison helper documented in DESIGN *)
val approx_eq : ?rel:float -> ?abs:float -> float -> float -> bool
(** Tolerant float equality:
    [|a - b| <= max (abs, rel * max |a| |b|)] with [rel = 1e-9] and
    [abs = 1e-12] by default — the tolerance regime of the feasibility
    checker (DESIGN.md §8).  This is the helper lint rule F1 points to
    instead of [=]/[<>]/polymorphic [compare] on float data. *)
