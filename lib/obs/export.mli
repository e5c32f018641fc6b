(** Exporters over a filled {!Obs.t} sink (DESIGN.md §10).

    Every span export reads the sink's {!Prof} frame tree (and, for the
    Chrome trace, its trace ring).  Text and CSV order everything by
    registry insertion / tree order, so deterministic instrumented work
    yields deterministic recorded values; durations and timestamps are
    timing-only. *)

val metrics_csv : Obs.t -> string
(** Header ["kind,name,value"], then one row per counter and gauge;
    histograms expand to one row per
    bucket ([name.le.EDGE], [name.overflow]) plus [name.count],
    [name.sum] and [name.p50]/[name.p90]/[name.p99] summary rows:
    linear interpolation between a bucket's edges (the lower edge of
    the first bucket is 0), ranks in the overflow bucket pinned to the
    last finite edge. *)

val text_report : Obs.t -> string
(** The frame tree depth-first, parents before children (count and
    cumulative ms per span, count per mark or fine frame), followed by
    counters, gauges and histograms (each with p50/p90/p99).  Empty
    sections are omitted. *)

val prof_report : ?top:int -> Obs.t -> string
(** Allocation profile table: the [top] (default 20) span paths by
    self minor words, with counts, %% of the run's total and
    cumulative words.  Keyed on minor words only, so the output is
    byte-identical across same-seed runs (DESIGN.md §17).  [""] when
    the sink is not profiling. *)

val prof_csv : Obs.t -> string
(** Every profile row (first-enter order) with all five GC metrics,
    self and cumulative.  Promoted/major words and collection counts
    are {e not} run-to-run reproducible; this export makes no
    byte-identity promise.  [""] when the sink is not profiling. *)

val prof_folded_alloc : Obs.t -> string
(** Folded-stack flamegraph lines ([a;b;c weight], one per span path
    with positive self minor words, weight = self minor words) —
    inferno / speedscope / flamegraph.pl compatible.  Byte-identical
    across same-seed runs. *)

val prof_folded_time : Obs.t -> string
(** Folded-stack lines weighted by the tree's self wall-time column in
    microseconds; timing-only, so {e not} byte-reproducible.  Works on
    any sink, profiling or not. *)

val chrome_trace : Obs.t -> string
(** Chrome [trace_event] JSON Array Format: one ["X"] complete event
    per span and one ["i"] instant event per mark among the latest
    4096 completions (the trace ring), then one ["C"] counter event per
    counter.  Load in [chrome://tracing] or Perfetto. *)

val save : string -> string -> unit
(** [save path contents] writes [contents] to [path]. *)
