(** Mutable binary min-heap keyed by float priority.

    Backs the discrete-event simulator's event queue: keys are event
    timestamps, payloads are events.  Ties are broken by insertion order
    so the simulation is deterministic. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> float -> 'a -> unit
(** [push h key v] inserts [v] with priority [key]. *)

val peek : 'a t -> (float * 'a) option
(** Smallest key, without removing it. *)

val pop : 'a t -> (float * 'a) option
(** Removes and returns the entry with the smallest key; among equal keys
    the earliest-inserted entry is returned first. *)
