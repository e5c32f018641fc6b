(** Parameters of one random instance, following the paper's simulation
    methodology (§5) with the calibration of DESIGN.md §3. *)

type size_regime =
  | Small  (** 5–30 MB *)
  | Large  (** 450–530 MB *)
  | Custom_sizes of float * float
      (** explicit [lo, hi] MB range — the scale instances use tiny
          objects so very large trees stay hostable on the paper's
          catalog *)

type freq_regime =
  | High  (** one download every 2 s *)
  | Low  (** one download every 50 s *)
  | Custom of float  (** downloads per second *)

type t = {
  n_operators : int;
  alpha : float;
  sizes : size_regime;
  freq : freq_regime;
  n_object_types : int;  (** paper: 15 *)
  n_servers : int;  (** paper: 6 *)
  min_copies : int;  (** replication lower bound, paper default 1 *)
  max_copies : int;  (** replication upper bound *)
  rho : float;  (** target throughput, results/s *)
  base_work : float;  (** Mops, DESIGN.md calibration *)
  work_factor : float;  (** Mops/MB^alpha *)
  seed : int;
}

val default : t
(** N=60, alpha=0.9, small sizes, high frequency, 15 object types over 6
    servers with 1–2 copies, rho=1, calibrated work constants, seed 1. *)

val make :
  ?alpha:float ->
  ?sizes:size_regime ->
  ?freq:freq_regime ->
  ?n_object_types:int ->
  ?n_servers:int ->
  ?min_copies:int ->
  ?max_copies:int ->
  ?rho:float ->
  ?base_work:float ->
  ?work_factor:float ->
  ?seed:int ->
  n_operators:int ->
  unit ->
  t
(** [default] with overrides.  When [sizes] is [Large] and [rho] is not
    given, rho defaults to 0.1 (DESIGN.md §3). *)

val scale : ?seed:int -> n_operators:int -> unit -> t
(** Scale-calibrated preset for very large trees (DESIGN.md §16):
    [Custom_sizes (0.001, 0.005)] MB objects and [base_work] 2000 Mops
    keep a 10k–100k-operator tree hostable on the unchanged paper
    platform (the root's output, which carries the whole leaf mass,
    stays under the 1000 MB/s processor link up to N ~ 300k). *)

val size_range : size_regime -> float * float
(** Raises [Invalid_argument] on a [Custom_sizes] range with [lo <= 0]
    or [hi < lo]. *)

val size_name : size_regime -> string
(** ["small"], ["large"] or ["custom(lo..hi)"]. *)

val frequency : freq_regime -> float

val pp : Format.formatter -> t -> unit
