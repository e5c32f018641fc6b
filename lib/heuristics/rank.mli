(** Static rank walker for Comp-Greedy (DESIGN.md §16).

    Comp-Greedy's order is a {e static} permutation (operators by
    non-increasing compute demand, ties by id): each round seeds a
    processor with the first unassigned operator and fills it walking
    the same order.  [Rank] walks the permutation skipping dead
    (already-assigned) elements in near-constant amortised time via
    path-compressed skip pointers — the "successor with deletion"
    structure.  Compression assumes monotone deletion; {!reset} forgets
    it when a sell resurrects operators. *)

type t

val descending : float array -> t
(** The indices of [key] by non-increasing key, ties by index — the
    order [Float.compare] on (key descending, index ascending) gives,
    with [-0.0] and [+0.0] tied.  The keys must be [>= 0] (not NaN);
    sorted by a stable radix sort on their bits in O(n). *)

val element : t -> int -> int
(** Element at a position of the order. *)

val first : t -> alive:(int -> bool) -> int -> int
(** [first t ~alive pos] — smallest position [>= pos] whose element is
    alive, or [length t]; compresses skip pointers over the dead
    prefix it crossed. *)

val reset : t -> unit
(** Invalidate all compression (call after a dead element was brought
    back to life). *)
