(** Deterministic domain-parallel sweep runner.

    Experiment sweeps decompose into independent (configuration, seed)
    cells.  {!map} runs those cells across [jobs] {!Domain} workers
    while guaranteeing output {e identical} to a sequential run:

    - {b static partition} — cell [i] belongs to worker [i mod jobs];
      no work stealing, no scheduling dependence;
    - {b per-cell observability} — every cell runs under its own fresh
      {!Insp_obs.Obs} sink (even at [jobs = 1], so the two regimes have
      the same semantics); the recorders are absorbed into the caller's
      sink in canonical cell order after all workers join, making merged
      metrics independent of the worker count.

    Result lists preserve item order.  This module is the only
    sanctioned [Domain.spawn] site in the library (lint rule D4) —
    route any parallelism through it.

    See DESIGN.md §11. *)

val with_jobs : int -> (unit -> 'a) -> 'a
(** [with_jobs n f] runs [f] with the ambient worker count set to [n]
    (restored afterwards, also on exceptions).  This is how [--jobs]
    reaches sweep internals without threading a parameter through every
    experiment builder.  Raises [Invalid_argument] if [n < 1]. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f items] is [List.map f items], computed by [jobs]
    domains (clamped to the number of items).  [f] must be safe to run
    on a fresh domain and must not depend on ambient mutable state
    other than the observability sink.  If any cell raises, all workers
    are still joined and the lowest-indexed cell's exception is
    re-raised.  [jobs] defaults to the count {!with_jobs} set (1
    outside it). *)
