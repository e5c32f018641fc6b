(** Dense id allocator.

    The hot data model of the solver keys everything by small integer
    ids (operators, processors, servers).  An arena hands out ids
    monotonically — ids are {e never reused}, so a freed processor id
    stays dead forever and journals referring to it stay unambiguous —
    and owns the per-id liveness and generation bookkeeping; callers
    keep their per-id state in their own arrays indexed by the id.

    Each id carries a {e generation stamp}, bumped by {!touch} and
    {!free}.  Cached derived state (a failed feasibility probe)
    records the stamps it was computed at; a stale stamp means the
    cache entry must be dropped (Comm-Greedy's failed-merge cache reads
    them through [Ledger.generation]).  See DESIGN.md §16. *)

type t

val create : unit -> t
(** An empty arena; its per-id arrays start at 16 slots and double as
    ids are allocated. *)

val alloc : t -> int
(** Fresh id, one greater than the previous allocation (dense preorder:
    the [n]-th call returns [n - 1]). *)

val free : t -> int -> unit
(** Kills the id (and bumps its generation).  The id is never handed out
    again. *)

val is_live : t -> int -> bool

val live_ids : t -> int list
(** Ascending. *)

val generation : t -> int -> int
(** Current stamp of a live id. *)

val touch : t -> int -> unit
(** Bump the stamp: the id's associated state changed and any cached
    view of it is now stale. *)
