(** Ablation studies for the design choices DESIGN.md documents as
    deviations from (or refinements of) the paper's text, plus the
    paper's replication-level discussion.

    Each ablation returns a rendered text table; the bench harness runs
    all of them after the main experiments. *)

val default_seeds : int list
(** [1; 2; 3; 4; 5]: the seeds a full-size experiment or ablation
    averages over. *)

val replication : ?seeds:int list -> ?copy_ranges:(int * int) list -> unit -> Figure.t
(** Paper §5 (last paragraph): the level of replication of basic objects
    on servers "has little or no effect" on the heuristics' performance.
    Sweeps the number of copies per object. *)

val all : (string * (quick:bool -> string)) list
(** [(id, render)] for every ablation: replication, grouping-rounds,
    merge-sweeps, downgrade, server-selection. *)
