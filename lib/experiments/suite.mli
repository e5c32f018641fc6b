(** The reproduced experiments — one entry per table/figure of the
    paper's evaluation (§5), plus the §5 text-only experiments and an
    extra simulator cross-validation.  See DESIGN.md §4 for the
    experiment index and EXPERIMENTS.md for paper-vs-measured notes.

    Every experiment averages over several seeds; deterministic given
    the seed list. *)

val fig2a : ?seeds:int list -> ?ns:int list -> unit -> Figure.t
(** Figure 2(a): cost vs N, alpha = 0.9, high frequency, small objects. *)

val fig2b : ?seeds:int list -> ?ns:int list -> unit -> Figure.t
(** Figure 2(b): same, alpha = 1.7. *)

val fig3 : ?seeds:int list -> ?alphas:float list -> ?n:int -> unit -> Figure.t
(** Figure 3: cost vs alpha at fixed N (default 60, the paper's figure;
    N = 20 reproduces the §5 text's threshold discussion). *)

val large_objects : ?seeds:int list -> ?ns:int list -> unit -> Figure.t
(** §5 text: large objects (450-530 MB); feasibility collapses beyond
    N ~ 45. *)

val all_ids : string list
(** In DESIGN.md order: fig2a fig2b fig3 fig3-n20 large lowfreq rates ilp
    sharing rewrite replication serve simcheck faults. *)

val run_by_id : ?quick:bool -> ?seed:int -> ?jobs:int -> string -> string option
(** Rendered experiment output; [quick] shrinks seeds and sweep points
    (used by tests).  [seed] (default 1) is the base of the consecutive
    seed list ([seed .. seed+4], or [seed .. seed+1] when quick), so the
    default reproduces {!Ablations.default_seeds}.  [jobs] (default 1) is the
    {!Par_sweep} worker count — the rendered output and merged metrics
    are identical for every value.  Runs under an [experiment.<id>]
    observability span.  [None] for an unknown id. *)
