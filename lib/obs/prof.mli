(** The frame tree of the observability layer (DESIGN.md §10, §17).

    A [t] is a mutable call tree keyed on frame names: one row per
    distinct path, carrying the completed-frame count, self and
    cumulative wall time and — on a profiling tree — GC deltas.  It is
    the only recorder behind [Obs.span]; every span export reads it.
    Two row kinds:

    - {b span} rows ([enter_span]) read [Clock.elapsed_us] on both
      edges; on a profiling tree they also snapshot [Gc.quick_stat]
      (promoted/major words, collection counts) and [Gc.minor_words];
    - {b fine} rows ([enter]) read only [Gc.minor_words] — a few words
      of profiler overhead per frame — and are what the ledger commit
      path opens around every mutation.  They are untimed and only
      opened on profiling trees.

    Time and detailed GC deltas of a span attribute to the nearest
    enclosing span: fine frames pass their children's accumulators
    through to their parent untouched.

    Span completions also land in a trace ring of fixed
    capacity (4096): the latest completions, each a row id,
    a start and a duration.  The recorder's size depends on the number
    of distinct paths, never on the number of completed frames.

    Determinism contract: counts, paths and minor-word deltas are a
    deterministic function of a deterministic execution and are
    golden-testable.  Times, promoted/major words and collection counts
    are {e not} reproducible run-to-run; exporters that promise
    byte-identity key on counts and minor words only. *)

type t

type kind = Fine | Span

type row = {
  name : string;
  parent : int;  (** index of the parent row in {!rows}; -1 for roots *)
  path : string;  (** '/'-joined frame names from the root *)
  depth : int;  (** 1 for root frames *)
  kind : kind;
  count : int;  (** completed frames at this path *)
  self_us : float;
  cum_us : float;
      (** wall time (timing-only): self excludes the nearest timed
          descendants *)
  self_minor : float;
  cum_minor : float;  (** minor words: self excludes direct children *)
  self_promoted : float;
  cum_promoted : float;
  self_major : float;
  cum_major : float;
  self_minor_collections : int;
  cum_minor_collections : int;
  self_major_collections : int;
  cum_major_collections : int;
}

type totals = {
  t_minor : float;
  t_promoted : float;
  t_major : float;
  t_minor_collections : int;
  t_major_collections : int;
}

val create : profile:bool -> unit -> t
(** Fresh tree; [~profile:true] makes frames read GC counters. *)

val profiling : t -> bool

val enter_span : t -> string -> unit
(** Open a timed span frame under the current frame: reads the clock,
    then (when profiling) snapshots the GC. *)

val enter : t -> string -> unit
(** Open a fine frame.  Reads [Gc.minor_words] only; call it on
    profiling trees. *)

val exit : t -> unit
(** Close the innermost frame, folding its deltas into its row and its
    parent's child accumulators; a span frame reads the GC before the
    clock and records a trace entry.  A no-op on an empty stack, so an
    unbalanced [exit] cannot raise out of instrumented code. *)

val depth : t -> int
(** Current open-frame count (0 when idle). *)

val unwind : t -> depth:int -> unit
(** [unwind t ~depth:d] exits frames until [depth t <= d].  Exception
    cleanup for scoped spans: a frame leaked by a raise inside the span
    body is closed (with whatever was recorded up to the raise) rather
    than skewing every later attribution. *)

val rows : t -> row list
(** All rows in first-enter order, so a parent precedes its children —
    deterministic for a deterministic execution. *)

val totals : t -> totals
(** GC deltas accumulated across completed top-level frames. *)

val iter_trace : t -> (int -> float -> float -> unit) -> unit
(** [iter_trace t f] calls [f row start_us dur_us] on the latest
    [min completions trace_capacity] span completions, oldest
    first; [row] indexes {!rows}. *)

val merge : into:t -> t -> unit
(** Fold every row of the source tree into [into], matching rows by
    tree position and creating missing ones in the source's row order.
    Counts and times add, and GC deltas when both trees profile.  The
    source's open frames and trace ring are ignored. *)

(* lint: allow t3 — oracle for test/test_obs.ml counter hits allocate nothing *)
val allocated_minor_words : (unit -> unit) -> float
(** Minor words allocated while running the thunk, measured with the
    same [Gc.minor_words] read the profiler uses.  The reported delta
    includes the constant cost of the snapshot reads themselves, so
    callers comparing against "zero" must calibrate against an empty
    thunk. *)
