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
  Builder.t -> style:style -> int list -> (Builder.group_id, string) result
(** Buys one processor of the requested style for the given unassigned
    operators; fails without mutating when no configuration can host
    them. *)

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
    round, [false] once the budget is exhausted. *)

val round_limit : Builder.t -> int
(** [n² + 16]: the rounds of a {!round_budget}, for a loop that counts
    its own rounds — round [k] (from 1) is within the budget exactly
    when [k < round_limit b]. *)

val not_converged : ('a, string) result
(** The failure of a loop that exhausted its {!round_budget}. *)

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
