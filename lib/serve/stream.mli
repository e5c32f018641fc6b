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
  mean_gap : int;
      (** arrival gaps are uniform over [0, 2*mean_gap) logical ticks *)
  mean_lifetime : int;
      (** lifetimes are uniform over [1, 2*mean_lifetime] ticks *)
  mean_burst : int;
      (** correlated arrivals: burst sizes are uniform over
          [1, 2*mean_burst - 1], and in-burst applications arrive at
          the same tick.  1 (the default) disables bursts and draws
          nothing, keeping legacy streams byte-identical. *)
}

val make :
  ?n_apps:int ->
  ?n_tenants:int ->
  ?min_operators:int ->
  ?max_operators:int ->
  ?mean_gap:int ->
  ?mean_lifetime:int ->
  ?mean_burst:int ->
  seed:int ->
  unit ->
  spec
(** Defaults: 1000 applications, 4 tenants, 6–24 operators, mean gap
    2, mean lifetime 90, no bursts; validates ranges. *)

val burst_size : Insp_util.Prng.t -> mean:int -> int
(** One correlated-burst size draw: uniform over [1, 2*mean - 1] (a
    mean of 1 returns 1 without consuming randomness).  Shared with the
    fault-timeline generator's crash bursts. *)

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
