module Prng = Insp_util.Prng
module Stream = Insp_serve.Stream

type fault =
  | Proc_crash of { victim : int }
  | Link_degrade of { a : int; b : int; factor : float; duration : float }
  | Server_outage of { server : int; duration : float }
  | Card_jitter of { proc : int; factor : float; duration : float }
  | Rho_demand of { factor : float }

type timed = { at : float; fault : fault }

type spec = {
  seed : int;
  horizon : float;
  n_events : int;
  n_servers : int;
  mean_burst : int;
  crash_w : int;
  degrade_w : int;
  outage_w : int;
  jitter_w : int;
  rho_w : int;
}

let make ?(horizon = 200.0) ?(n_events = 12) ?(n_servers = 6)
    ?(mean_burst = 1) ?(crash_w = 4) ?(degrade_w = 2) ?(outage_w = 1)
    ?(jitter_w = 2) ?(rho_w = 1) ~seed () =
  if horizon <= 0.0 then invalid_arg "Scenario.make: horizon <= 0";
  if n_events < 0 then invalid_arg "Scenario.make: n_events < 0";
  if n_servers < 1 then invalid_arg "Scenario.make: n_servers < 1";
  if mean_burst < 1 then invalid_arg "Scenario.make: mean_burst < 1";
  if crash_w < 0 || degrade_w < 0 || outage_w < 0 || jitter_w < 0 || rho_w < 0
  then invalid_arg "Scenario.make: negative weight";
  if crash_w + degrade_w + outage_w + jitter_w + rho_w = 0 then
    invalid_arg "Scenario.make: all weights zero";
  {
    seed; horizon; n_events; n_servers; mean_burst; crash_w; degrade_w;
    outage_w; jitter_w; rho_w;
  }

(* Fault kinds are drawn by integer weight in a fixed order, so the
   timeline is a pure function of the spec.  Victim / link endpoints
   are drawn as raw integers: the engine reduces them modulo the
   processor count of the *current* allocation, which the generator
   cannot know (repairs change it). *)
let draw_fault spec rng =
  let total =
    spec.crash_w + spec.degrade_w + spec.outage_w + spec.jitter_w + spec.rho_w
  in
  let k = Prng.int rng total in
  if k < spec.crash_w then `Crash
  else if k < spec.crash_w + spec.degrade_w then
    `Degrade
      (Link_degrade
         {
           a = Prng.int rng 1_000_000;
           b = Prng.int rng 1_000_000;
           factor = Prng.float_range rng 0.2 0.8;
           duration = Prng.float_range rng 2.0 10.0;
         })
  else if k < spec.crash_w + spec.degrade_w + spec.outage_w then
    `Degrade
      (Server_outage
         {
           server = Prng.int rng spec.n_servers;
           duration = Prng.float_range rng 2.0 8.0;
         })
  else if k < spec.crash_w + spec.degrade_w + spec.outage_w + spec.jitter_w
  then
    `Degrade
      (Card_jitter
         {
           proc = Prng.int rng 1_000_000;
           factor = Prng.float_range rng 0.3 0.9;
           duration = Prng.float_range rng 1.0 6.0;
         })
  else `Degrade (Rho_demand { factor = Prng.float_range rng 0.5 2.0 })

let generate spec =
  let rng = Prng.create spec.seed in
  (* Uniform gaps with mean [horizon / (n_events + 1)] keep the bulk of
     the timeline inside the horizon without a draw-order-perturbing
     rejection loop. *)
  let mean_gap = spec.horizon /. float_of_int (spec.n_events + 1) in
  let now = ref 0.0 in
  let acc = ref [] in
  for _ = 1 to spec.n_events do
    now := !now +. Prng.float_range rng 0.0 (2.0 *. mean_gap);
    match draw_fault spec rng with
    | `Crash ->
      (* Correlated failures: a rack loss takes several processors at
         the same instant.  Burst sizing is shared with the arrival
         stream generator. *)
      let b = Stream.burst_size rng ~mean:spec.mean_burst in
      for _ = 1 to b do
        acc :=
          { at = !now; fault = Proc_crash { victim = Prng.int rng 1_000_000 } }
          :: !acc
      done
    | `Degrade fault -> acc := { at = !now; fault } :: !acc
  done;
  List.rev !acc

let scope_label = function
  | Proc_crash { victim } -> Printf.sprintf "crash:%d" victim
  | Link_degrade { a; b; _ } -> Printf.sprintf "plink:%d-%d" a b
  | Server_outage { server; _ } -> Printf.sprintf "server:%d" server
  | Card_jitter { proc; _ } -> Printf.sprintf "card:%d" proc
  | Rho_demand _ -> "rho"
