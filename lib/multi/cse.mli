(** Common-subexpression sharing across applications (paper §6 future
    work, after Pandit & Ji [14] and Munagala et al. [13]).

    Operators are aggregation/combination operators, treated as
    associative-commutative: two subtrees are the {e same computation}
    when their canonical forms coincide — an object leaf is canonical by
    its type, an operator by the multiset of its inputs' canonical
    forms.  Hash-consing every subtree across all applications yields a
    DAG in which each distinct computation appears once; a shared node
    runs at the fastest consumer's rate. *)

val share_apps : Insp_tree.App.t list -> Dag.t
(** Convenience wrapper: extracts the catalog, alpha, work constants and
    rho from each application (they must all agree on catalog, alpha and
    work constants). *)

type savings = {
  unshared_nodes : int;
  shared_nodes : int;
  unshared_work : float;  (** sum of rate * work, Mops/s *)
  shared_work : float;
  unshared_downloads : float;
      (** MB/s if every tree downloads its own objects (one download per
          (node, object)) *)
  shared_downloads : float;
}

val savings : Insp_tree.App.t list -> savings
(** Compare the unshared DAG ({!Dag.of_apps}) with the hash-consed one. *)

val pp_savings : Format.formatter -> savings -> unit
