module Prng = Insp_util.Prng

type spec = {
  seed : int;
  n_apps : int;
  n_tenants : int;
  min_operators : int;
  max_operators : int;
  mean_gap : int;
  mean_lifetime : int;
  mean_burst : int;
}

let default =
  {
    seed = 1;
    n_apps = 1000;
    n_tenants = 4;
    min_operators = 6;
    max_operators = 24;
    mean_gap = 2;
    mean_lifetime = 90;
    mean_burst = 1;
  }

let make ?(n_apps = default.n_apps) ?(n_tenants = default.n_tenants)
    ?(min_operators = default.min_operators)
    ?(max_operators = default.max_operators) ?(mean_gap = default.mean_gap)
    ?(mean_lifetime = default.mean_lifetime)
    ?(mean_burst = default.mean_burst) ~seed () =
  if n_apps < 0 then invalid_arg "Stream.make: n_apps < 0";
  if n_tenants < 1 then invalid_arg "Stream.make: n_tenants < 1";
  if min_operators < 1 || max_operators < min_operators then
    invalid_arg "Stream.make: bad operator range";
  if mean_gap < 0 || mean_lifetime < 1 then
    invalid_arg "Stream.make: bad timing parameters";
  if mean_burst < 1 then invalid_arg "Stream.make: mean_burst < 1";
  { seed; n_apps; n_tenants; min_operators; max_operators; mean_gap;
    mean_lifetime; mean_burst }

(* Correlated-burst size: uniform over [1, 2*mean - 1], so the mean is
   [mean] and a mean of 1 degenerates to the constant 1.  Shared with
   the fault-timeline generator (crash bursts). *)
let burst_size rng ~mean =
  if mean < 1 then invalid_arg "Stream.burst_size: mean < 1";
  if mean = 1 then 1 else 1 + Prng.int rng ((2 * mean) - 1)

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
  (* Applications still to arrive in the current burst (beyond the one
     being drawn).  With [mean_burst = 1] no burst draw ever happens and
     the stream is byte-identical to the pre-burst generator. *)
  let in_burst = ref 0 in
  for app = 0 to spec.n_apps - 1 do
    (* One fixed draw order per application keeps the stream stable:
       inserting an application shifts later ones wholesale instead of
       scrambling their parameters. *)
    let gap =
      if !in_burst > 0 then begin
        decr in_burst;
        0
      end
      else begin
        if spec.mean_burst > 1 then
          in_burst := burst_size rng ~mean:spec.mean_burst - 1;
        if spec.mean_gap = 0 then 0 else Prng.int rng (2 * spec.mean_gap)
      end
    in
    let tenant = Prng.int rng spec.n_tenants in
    let n_operators =
      Prng.int_range rng spec.min_operators spec.max_operators
    in
    let lifetime = 1 + Prng.int rng (2 * spec.mean_lifetime) in
    let app_seed = Prng.int rng 1_000_000 in
    now := !now + gap;
    acc :=
      Departure { app; t = !now + lifetime }
      :: Arrival { app; tenant; n_operators; app_seed; t = !now }
      :: !acc
  done;
  List.sort (fun a b -> compare (event_key a) (event_key b)) !acc
