(** Helpers shared by the placement heuristics. *)

type style = [ `Best | `Cheapest ]
(** Which configuration a heuristic provisions when buying a processor:
    the catalog's most expensive one (later downgraded) or the cheapest
    one that can host the operators. *)

val by_work_desc : Insp_tree.Graph.t -> int list -> int list
(** Sort operators by non-increasing [w_i] (ties by id for
    determinism). *)

val fill : Builder.t -> Builder.group_id -> int list -> unit
(** [fill b gid candidates] greedily [try_add]s each still-unassigned
    candidate, in order. *)

val acquire_for :
  Builder.t -> style:style -> int list ->
  (Builder.group_id, Insp_obs.Journal.reject) result
(** Buys one processor of the requested style for the given unassigned
    operators; fails without mutating, with the journaled reason, when
    no configuration can host them.  A caller whose failure ends the
    placement words it with {!no_host}. *)

val no_host : int list -> ('a, string) result
(** The failure of a placement that could buy no processor for these
    operators: ["no processor can host operators {…}"]. *)

val acquire_with_grouping :
  ?on_release:(int -> unit) ->
  Builder.t -> style:style -> int -> (Builder.group_id, string) result
(** The paper's grouping fallback (Random / Comp-Greedy), applied
    iteratively: buy a processor for [op]; while that fails, pull in the
    candidate set's most communication-demanding neighbour — selling the
    neighbour's current processor if it had one (its co-located operators
    return to the unassigned pool) — and retry, up to a bounded number of
    rounds.  Iteration (vs the paper's single pairing) is required when a
    chain of tree edges each exceeds the processor-link bandwidth.
    [on_release] is called once per operator returned to the unassigned
    pool by a sell, after the sell committed — Comp-Greedy uses it to
    learn that its rank walker must be reset. *)

val round_budget : Builder.t -> unit -> bool
(** The grouping fallback can sell a processor and release its
    operators, so every placement loop that buys through it is bounded
    to guarantee termination: [round_budget b] is a fresh budget of
    [n² + 16] rounds over [b]'s [n]-node view, and each call spends one
    round, [false] once the budget is exhausted.  For a loop whose
    rounds also read a random stream (Random); the deterministic loops
    use {!rounds}. *)

type rounds
(** The rounds of a deterministic placement loop: a {!round_budget}
    that also ends the loop once the builder's state repeats. *)

val rounds : Builder.t -> rounds
(** A fresh {!round_budget}'s worth of rounds over [b], for a loop whose
    round is a function of [b]'s state alone (and of inputs fixed until
    {!restart}). *)

val next_round : rounds -> bool
(** Spends one round: [false] once the budget is exhausted, or when
    the builder's state ({!Insp_mapping.Ledger.state_key}, ids
    renumbered by rank) equals its state at an earlier round, from
    which the loop would cycle until the budget ran out.  Brent's cycle
    finding, with keys built only from round [n] on. *)

val restart : rounds -> unit
(** Forgets the states seen: the loop's rounds now read other fixed
    inputs (Object-Availability's next object).  The budget spent
    stays spent. *)

val not_converged : ('a, string) result
(** The failure of a loop that exhausted its {!round_budget} or
    {!rounds}. *)

val place_rest : Builder.t -> (Builder.t, string) result
(** Places every operator still unassigned Comp-Greedy style: buy a
    processor for the heaviest ({!by_work_desc}) with the grouping
    fallback, fill it in the same order, repeat, within one
    {!round_budget}. *)

val object_set : Insp_tree.Graph.t -> int -> int list
(** Distinct object types operator [i] downloads. *)

val with_collapse_rounds : int -> (unit -> 'a) -> 'a
(** Run a thunk with the grouping fallback limited to the given number
    of rounds (1 = the paper's single pairing step; default 8).  For the
    ablation bench; restores the previous value on exit.  Not
    thread-safe. *)
