(** The single blessed monotonic clock of the observability layer.

    All wall-clock reads outside [bench/] live here (lint rule D3,
    DESIGN.md §9/§10).  Readings are clamped to be non-decreasing even
    if the system clock steps backwards, and are reported relative to
    the first read of the process, so raw epoch times never leak into
    recorded data. *)

val elapsed_us : unit -> float
(** Monotonic elapsed time in microseconds since the process's first
    clock read.  Timing-only: never compare or persist these values in
    deterministic outputs. *)
