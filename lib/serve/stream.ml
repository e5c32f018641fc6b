module Prng = Insp_util.Prng

type spec = {
  seed : int;
  n_apps : int;
  n_tenants : int;
  min_operators : int;
  max_operators : int;
}

(* Arrival gaps are uniform over [0, 2*mean_gap) logical ticks and
   lifetimes over [1, 2*mean_lifetime]. *)
let mean_gap = 2
let mean_lifetime = 90

let default =
  {
    seed = 1;
    n_apps = 1000;
    n_tenants = 4;
    min_operators = 6;
    max_operators = 24;
  }

let make ?(n_apps = default.n_apps) ?(n_tenants = default.n_tenants)
    ?(min_operators = default.min_operators)
    ?(max_operators = default.max_operators) ~seed () =
  if n_apps < 0 then invalid_arg "Stream.make: n_apps < 0";
  if n_tenants < 1 then invalid_arg "Stream.make: n_tenants < 1";
  if min_operators < 1 || max_operators < min_operators then
    invalid_arg "Stream.make: bad operator range";
  { seed; n_apps; n_tenants; min_operators; max_operators }

type event =
  | Arrival of {
      app : int;
      tenant : int;
      n_operators : int;
      app_seed : int;
      t : int;
    }
  | Departure of { app : int; t : int }

(* Sort key: time, then departures before arrivals (capacity freed at
   tick T is available to an application arriving at the same tick),
   then app id.  Every component is deterministic, so the order is. *)
let event_key = function
  | Departure { t; app } -> (t, 0, app)
  | Arrival { t; app; _ } -> (t, 1, app)

let events spec =
  let rng = Prng.create spec.seed in
  let now = ref 0 in
  let acc = ref [] in
  for app = 0 to spec.n_apps - 1 do
    (* One fixed draw order per application keeps the stream stable:
       inserting an application shifts later ones wholesale instead of
       scrambling their parameters. *)
    let gap = Prng.int rng (2 * mean_gap) in
    let tenant = Prng.int rng spec.n_tenants in
    let n_operators =
      Prng.int_range rng spec.min_operators spec.max_operators
    in
    let lifetime = 1 + Prng.int rng (2 * mean_lifetime) in
    let app_seed = Prng.int rng 1_000_000 in
    now := !now + gap;
    acc :=
      Departure { app; t = !now + lifetime }
      :: Arrival { app; tenant; n_operators; app_seed; t = !now }
      :: !acc
  done;
  List.sort (fun a b -> compare (event_key a) (event_key b)) !acc
