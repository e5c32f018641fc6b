(** Instrumentation facade over a domain-local-but-swappable sink
    (DESIGN.md §10).

    The engines call the guarded entry points ([incr], [span], …)
    unconditionally.  With no sink installed every call is a no-op
    costing one domain-local read; [with_sink] makes the same calls
    record into a {!Metrics} registry and a {!Prof} frame tree.  The
    sink lives in domain-local storage: each {!Domain} records
    independently, and parallel workers hand their recorders back to
    the spawning domain, which folds them in with {!absorb}.

    Determinism contract: recorded {e values} (counters, gauges,
    histogram counts, frame paths and counts) are deterministic for a
    deterministic computation; span {e durations} and timestamps
    are timing-only and must never feed back into results.  Profiled
    minor-word deltas ({!Prof}) are deterministic; promoted/major words
    and collection counts are not (minor-heap phase at run start). *)

type t = { metrics : Metrics.t; journal : Journal.t; prof : Prof.t }

val create : ?profile:bool -> unit -> t
(** Fresh sink; the journal starts disabled (see {!with_sink}) and the
    frame tree reads GC counters only when [~profile:true]. *)

val enabled : unit -> bool

val with_sink :
  ?journal:bool -> ?journal_depth:int -> ?profile:bool -> (unit -> 'a) -> 'a * t
(** Run [f] with a fresh sink installed, restoring the previously
    installed sink afterwards (also on exceptions) — nests safely;
    returns [f]'s result and the filled sink.  [?journal] enables
    decision journaling in the fresh sink; when omitted, journaling (and
    its depth) is inherited from the enclosing sink of {e this} domain,
    so nested scopes under a journaling run keep recording.  When
    [?profile] is omitted the fresh sink {e shares} the enclosing sink's
    {!Prof.t} (profiling state included), so frames opened by nested
    scopes (serve admissions, fault repairs) keep accumulating into the
    one tree of the run; with no enclosing sink it gets a fresh,
    non-profiling tree.  An explicit [?profile] always gets a fresh
    tree. *)

val absorb : t -> unit
(** [absorb r] merges [r]'s metrics into the currently installed sink
    (see {!Metrics.merge}), and — when the installed sink is journaling —
    appends [r]'s journal events (see {!Journal.merge}).  A no-op when
    none is installed.  When the two sinks hold distinct trees (a
    worker's, not a nested scope sharing the run's), [r]'s whole tree —
    counts, times and GC deltas — is folded in at the roots with
    {!Prof.merge}; its trace ring is not carried over. *)

val quietly : (unit -> 'a) -> 'a
(** [quietly f] runs [f] under a journal-suppressed {!with_sink} and
    {!absorb}s that sink: [f]'s metrics and frames count, its decision
    events are dropped (a solver under serve admission, a repair). *)

(** {1 Guarded entry points} — no-ops when no sink is installed. *)

val incr : ?by:int -> string -> unit
val add : string -> int -> unit
(** [add name n] = [incr ~by:n name]. *)

val gauge : string -> float -> unit
val observe : string -> float -> unit

val span : string -> (unit -> 'a) -> 'a
(** [span name f] runs [f] inside a timed frame of the sink's tree;
    exception-safe.  When the sink is profiling the frame also reads
    all five GC metrics, and on exit it unwinds any fine frame a raise
    inside [f] may have leaked. *)

(** {1 Profiling entry points}

    The commit-path engines bracket mutations with explicit
    [prof_enter]/[prof_exit] pairs rather than a closure-taking
    wrapper: a closure would allocate even with profiling off, and
    these sites run millions of times per 100k-operator solve.  With
    no sink — or a sink that is not profiling — each call is one
    domain-local read and a match, allocating nothing. *)

val profiling : unit -> bool
(** The installed sink, if any, was created with [~profile:true]. *)

val prof_enter : string -> unit
(** Open a fine profiler frame (minor words only; see
    {!Prof.enter}). *)

val prof_exit : unit -> unit
(** Close the innermost profiler frame. *)

(** {1 Journal entry points}

    A decision site makes one call,
    [if Obs.decide D then Obs.event (...)]: {!decide} bumps the
    decision's {!Journal.counters} and says whether to record its
    event, so the event is built only when journaling.  With no sink
    the cost is one domain-local read, with no allocation.  Events that
    count nothing (phases, download choices, repair steps) guard with
    [if Obs.journaling () then Obs.event (...)]. *)

val decide : Journal.decision -> bool
(** Bump the decision's counters; [true] when the installed sink is
    recording decision events. *)

val journaling : unit -> bool
(** The installed sink, if any, is recording decision events. *)

val journal_depth : unit -> int
(** Per-category depth cap of the installed sink's journal
    ({!Journal.default_depth} when none is installed). *)

val event : Journal.event -> unit

val event_bounded : category:string -> Journal.event -> unit
(** {!Journal.record_bounded}: capped per [category] by the journal's
    depth. *)
