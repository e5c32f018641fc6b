(** Static rank walker for Comp-Greedy (DESIGN.md §16).

    Comp-Greedy's order is a {e static} permutation (operators by
    non-increasing work, ties by id): each round seeds a processor with
    the first unassigned operator and fills it walking the same order.
    [Rank] walks the permutation skipping dead (already-assigned)
    elements in near-constant amortised time via path-compressed skip
    pointers — the "successor with deletion" structure.  Compression
    assumes monotone deletion; {!reset} forgets it when a sell
    resurrects operators. *)

type t

val of_order : int array -> t
(** The elements in priority order (copied). *)

val element : t -> int -> int
(** Element at a position of the order. *)

val first : t -> alive:(int -> bool) -> int -> int
(** [first t ~alive pos] — smallest position [>= pos] whose element is
    alive, or [length t]; compresses skip pointers over the dead
    prefix it crossed. *)

val reset : t -> unit
(** Invalidate all compression (call after a dead element was brought
    back to life). *)
