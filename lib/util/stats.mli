(** Descriptive statistics over float samples.

    Used by the experiment harness to aggregate heuristic costs over random
    seeds. *)

val mean : float list -> float
(** Arithmetic mean.  Raises [Invalid_argument] on the empty list, so an
    empty sample set fails loudly instead of reading as a zero cost. *)

(* lint: allow t3 — the tolerance helper lint rule F1's message prescribes *)
val approx_eq : ?rel:float -> ?abs:float -> float -> float -> bool
(** Tolerant float equality:
    [|a - b| <= max (abs, rel * max |a| |b|)] with [rel = 1e-9] and
    [abs = 1e-12] by default — the tolerance regime of the feasibility
    checker (DESIGN.md §8).  This is the helper lint rule F1 points to
    instead of [=]/[<>]/polymorphic [compare] on float data. *)
