(** Validation of an allocation against the paper's constraints (1)–(5)
    plus structural well-formedness.

    The checker is the single source of truth for feasibility: every
    heuristic solution and every exact solution is passed through it in
    tests, and the discrete-event simulator is validated against its
    verdicts. *)

type violation =
  | Unassigned_operator of int
      (** an operator of the application has no processor *)
  | Missing_download of { proc : int; object_type : int }
      (** a processor hosts an al-operator but has no source for one of
          its objects *)
  | Extraneous_download of { proc : int; object_type : int }
      (** a download of an object no hosted operator needs *)
  | Duplicate_download of { proc : int; object_type : int }
      (** the same object type appears more than once in a processor's
          download plan (different servers), double-counting its NIC
          load *)
  | Not_held of { proc : int; object_type : int; server : int }
      (** download points at a server that does not carry the object *)
  | Compute_overload of { proc : int; load : float; capacity : float }
      (** constraint (1) *)
  | Nic_overload of { proc : int; load : float; capacity : float }
      (** constraint (2) *)
  | Server_card_overload of { server : int; load : float; capacity : float }
      (** constraint (3) *)
  | Server_link_overload of {
      server : int;
      proc : int;
      load : float;
      capacity : float;
    }  (** constraint (4) *)
  | Proc_link_overload of {
      proc_a : int;
      proc_b : int;
      load : float;
      capacity : float;
    }  (** constraint (5) *)

val check :
  Insp_tree.App.t -> Insp_platform.Platform.t -> Alloc.t -> violation list
(** All violations, structural first.  Empty list = feasible. *)

(* lint: allow t3 — documented oracle entry point for external validity checks *)
val is_feasible :
  Insp_tree.App.t -> Insp_platform.Platform.t -> Alloc.t -> bool

val proc_demands : Insp_tree.App.t -> Alloc.t -> Demand.t array
(** Demand of every processor's operator group, indexed by processor:
    bit-identical to {!Demand.of_group} on each group, computed in one
    linear sweep over the operators. *)

val proc_download_rate : Insp_tree.App.t -> Alloc.t -> int -> float
(** MB/s of basic-object downloads entering processor [u] according to
    its download plan. *)

val pair_flow : Insp_tree.App.t -> Alloc.t -> int -> int -> float
(** Total MB/s exchanged between two distinct processors over their
    link: child-to-parent flows in both directions (constraint (5)'s
    left-hand side). *)

val pp_violation : Format.formatter -> violation -> unit

val explain : violation list -> string
(** Multi-line human-readable report ("feasible" when empty). *)
