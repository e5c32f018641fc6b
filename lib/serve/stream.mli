(** Deterministic, seeded event stream of application arrivals and
    departures — the workload of the multi-tenant allocation service
    ({!Serve}).

    The stream is a pure function of its {!spec}: one PRNG, a fixed
    per-application draw order, and a total sort key over events.  Two
    calls to {!events} with equal specs return equal lists. *)

type spec = {
  seed : int;
  n_apps : int;
  n_tenants : int;
  min_operators : int;  (** inclusive *)
  max_operators : int;  (** inclusive *)
}

val make :
  ?n_apps:int ->
  ?n_tenants:int ->
  ?min_operators:int ->
  ?max_operators:int ->
  seed:int ->
  unit ->
  spec
(** Defaults: 1000 applications, 4 tenants, 6–24 operators; validates
    ranges.  Timing is fixed: arrival gaps are uniform over
    [0, 4) logical ticks (mean 2) and lifetimes over [1, 180] ticks
    (mean 90). *)

type event =
  | Arrival of {
      app : int;  (** dense id, 0-based in arrival order *)
      tenant : int;
      n_operators : int;
      app_seed : int;  (** seeds the instance generator and the solver *)
      t : int;  (** logical arrival tick *)
    }
  | Departure of { app : int; t : int }

val events : spec -> event list
(** The full stream, sorted by (time, departures-first, app id) — a
    departure at tick [T] frees capacity before an arrival at [T] is
    admitted.  Every application departs exactly once, strictly after
    its arrival. *)
