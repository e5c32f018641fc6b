(** Validation of an allocation against the paper's constraints (1)–(5)
    plus structural well-formedness, for one operator tree or a DAG
    shared by several applications.

    The checker is the single source of truth for feasibility: every
    heuristic solution, exact solution and DAG placement is passed
    through it in tests, and the simulator is validated against its
    verdicts.  It reads an operator-graph view ({!Insp_tree.Graph}): a
    node's compute load is its rate times its work, and its output
    crosses to another processor as one stream per destination
    processor, at the fastest rate of its consumers there, and to each
    unassigned consumer as a stream of its own.  On a tree these are
    the paper's constraints verbatim.

    Loads are summed in a fixed order, which keeps tree results
    bit-identical to the per-group definitions ({!Demand.of_group}):
    compute by node id; comm_in by (consumer id, input slot), each
    stream charged at its first consumer on the processor; comm_out by
    producer id, destinations in the order its ascending consumers first
    reach them; constraint (5) rows by consumer id. *)

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
      (** download points at a server that does not carry the object,
          or names a server or object type outside the platform *)
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

val check_graph :
  Insp_tree.Graph.t -> Insp_platform.Platform.t -> Alloc.t -> violation list
(** {!check} on an operator graph whose node [i] is the allocation's
    operator [i]: the DAG checker. *)

type measurement = private {
  need_start : int array;
  needed : int array;
      (** processor [u]'s distinct needed object types, ascending:
          [needed.(need_start.(u)) .. needed.(need_start.(u + 1) - 1)] *)
  demands : Demand.t array;  (** on a tree, {!Demand.of_group} bit for bit *)
  plan_rates : float array;  (** MB/s of the downloads each plan lists *)
}
(** What the downgrade step and the check read of every processor.  It
    reads no configuration, so it holds for [Alloc.with_configs alloc cs]. *)

val measure : Insp_tree.Graph.t -> Alloc.t -> measurement

val check_measured :
  measurement -> Insp_tree.Graph.t -> Insp_platform.Platform.t -> Alloc.t -> violation list
(** {!check_graph} given the allocation's measurement. *)

val explain : violation list -> string
(** Multi-line human-readable report ("feasible" when empty). *)
