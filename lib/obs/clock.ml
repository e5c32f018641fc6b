(* The single blessed time source of the observability layer
   (DESIGN.md §10).  Every wall-clock read in lib/ lives in this file —
   lint rule D3 sanctions exactly bench/ and lib/obs/clock.ml — so the
   determinism story stays auditable: timestamps flow only into span
   [start]/[dur] fields, which the contract marks timing-only.

   [Unix.gettimeofday] is not monotonic under clock steps (NTP), so
   readings are clamped to be non-decreasing; all consumers get elapsed
   microseconds since the first read of the process.  The clamp state is
   domain-local so parallel sweep workers never race on it. *)

let t0 = Unix.gettimeofday ()

(* The clamp state is a flat mutable float cell rather than a
   [float Domain.DLS.key]: [Domain.DLS.set] boxes its float argument,
   and the old code only called it when the clock had advanced past the
   clamp — allocation conditional on wall-clock VALUES.  The allocation
   profiler (DESIGN.md §17) surfaced that as a few spurious words of
   run-to-run span-self noise in otherwise deterministic solves; the
   unboxed [c.v <- t] store makes every call allocate identically. *)
type cell = { mutable v : float }

let last : cell Domain.DLS.key = Domain.DLS.new_key (fun () -> { v = 0.0 })

let elapsed_us () =
  let t = (Unix.gettimeofday () -. t0) *. 1e6 in
  let c = Domain.DLS.get last in
  if t > c.v then c.v <- t;
  c.v
