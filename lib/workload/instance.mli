(** A generated problem instance: application plus platform. *)

type t = {
  config : Config.t;
  app : Insp_tree.App.t;
  platform : Insp_platform.Platform.t;
}

val generate : Config.t -> t
(** Deterministic in [config.seed]: the seed is split into independent
    streams for tree shape, object sizes and server placement, so e.g.
    changing the frequency regime does not perturb the generated tree. *)

type gen_error =
  | Operator_count_out_of_range of { requested : int; limit : int }
      (** [n_operators] outside [1, limit] — the generator's arrays
          cannot represent the tree *)
  | Operator_exceeds_catalog of {
      operator : int;
      work : float;
      nic : float;
      cpu_limit : float;
      nic_limit : float;
    }
      (** a single operator's demand exceeds the catalog's largest
          configuration, so no allocation can exist: the requested
          operator count overflows what the platform can host under the
          configured object sizes *)

val gen_error_message : gen_error -> string

val generate_checked : Config.t -> (t, gen_error) result
(** {!generate} with the unsolvable-by-construction cases turned into
    typed errors instead of downstream asserts or guaranteed heuristic
    failures: the operator count must be representable, and every
    operator alone must fit the catalog's best configuration (a
    necessary condition for any feasible allocation).  Deterministic in
    [config.seed] like {!generate}. *)

val with_frequency : t -> float -> t
(** Same tree, same sizes, same servers; only the download frequency
    changes (the paper's download-rate sweep). *)

val homogeneous : t -> cpu_index:int -> nic_index:int -> t
(** Restrict the platform catalog (CONSTR-HOM) keeping everything else. *)

val pp : Format.formatter -> t -> unit
