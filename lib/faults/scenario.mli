(** Deterministic, seed-driven fault scenario generator.

    A scenario is a typed timeline of infrastructure faults — processor
    crashes (possibly in correlated bursts, sharing the burst-size draw
    with {!Insp_serve.Stream}), link degradations, data-server outages,
    network-card bandwidth jitter and diurnal demand (rho) shifts — as
    a pure function of its {!spec}: one PRNG, a fixed draw order per
    event, ascending times by construction.  Two calls to {!generate}
    with equal specs return equal timelines. *)

type fault =
  | Proc_crash of { victim : int }
      (** raw draw; the engine reduces it modulo the current processor
          count, which repairs keep changing *)
  | Link_degrade of { a : int; b : int; factor : float; duration : float }
      (** processor pair link at [factor] of nominal (raw endpoint
          draws, engine-reduced; equal endpoints are skipped) *)
  | Server_outage of { server : int; duration : float }
      (** data-server card effectively down *)
  | Card_jitter of { proc : int; factor : float; duration : float }
      (** one processor's card at [factor] of nominal *)
  | Rho_demand of { factor : float }
      (** target throughput rescaled to [factor] x the original rho *)

type timed = { at : float; fault : fault }

type spec = {
  seed : int;
  horizon : float;  (** mean timeline extent (s) *)
  n_events : int;  (** scheduled events; crash bursts may expand them *)
  n_servers : int;  (** bound for server-outage draws *)
  mean_burst : int;  (** crash burst sizes, see {!Insp_serve.Stream.burst_size} *)
  crash_w : int;  (** integer draw weights, fixed order *)
  degrade_w : int;
  outage_w : int;
  jitter_w : int;
  rho_w : int;
}

val make :
  ?horizon:float ->
  ?n_events:int ->
  ?n_servers:int ->
  ?mean_burst:int ->
  ?crash_w:int ->
  ?degrade_w:int ->
  ?outage_w:int ->
  ?jitter_w:int ->
  ?rho_w:int ->
  seed:int ->
  unit ->
  spec
(** Defaults: horizon 200 s, 12 events over 6 servers, no bursts,
    weights crash 4 / degrade 2 / outage 1 / jitter 2 / rho 1.
    Validates ranges. *)

val generate : spec -> timed list
(** The timeline, ascending in [at] (ties keep draw order). *)

val scope_label : fault -> string
(** Canonical label for journals and tables, e.g. ["plink:2-3"],
    ["server:1"], ["card:0"], ["crash:4"], ["rho"]. *)
