(** The paper's integer-linear-programming formulation (§3), for
    homogeneous platforms (CONSTR-HOM), built over {!Simplex}/{!Milp}.

    Given an application, a homogeneous platform and a processor budget
    [max_procs], the model chooses an operator assignment and a download
    plan minimising the number of processors bought:

    - binaries [x_{i,u}] (operator [i] on processor [u]) and [y_u]
      (processor [u] is bought);
    - continuous crossing indicators [a_{i,u} >= x_{i,u} - x_{p(i),u}]
      and [b_{i,u} >= x_{p(i),u} - x_{i,u}] linearise the communication
      terms of constraint (2);
    - continuous [n_{u,k} >= x_{i,u}] (for every al-operator [i] needing
      [k]) and download split [d_{u,k,l}] with
      [sum_l d_{u,k,l} = n_{u,k}] tie the plan to server capacities
      (constraints (3) and (4)).

    The pairwise processor-link constraint (5) is not linearisable
    without quadratically many extra variables and is omitted; the model
    therefore yields a valid *lower bound* (and on the paper's platform,
    where NIC bandwidth never exceeds 2.5x the link bandwidth, its
    solutions are almost always feasible — the exact solver re-validates
    them). *)

type t = {
  milp : Milp.t;
  n_operators : int;
  max_procs : int;
  x_index : int -> int -> int;  (** [x_index i u] *)
  y_index : int -> int;
}

val build :
  Insp_tree.App.t -> Insp_platform.Platform.t -> max_procs:int -> t
(** Raises [Invalid_argument] when the platform catalog is not
    homogeneous. *)

val lower_bound : t -> float option
(** LP-relaxation bound on the number of processors. *)
