(** Minimal CSV emission (RFC 4180 quoting) for experiment series.

    Each reproduced figure is also emitted as a CSV block so the series
    can be re-plotted outside the repository. *)

type t

val create : string list -> t
(** [create header] starts a CSV document with the given column names. *)

val add_floats : t -> float list -> unit
(** Appends a row of floats formatted with ["%.6g"]; NaN renders empty. *)

val to_string : t -> string
(** Serialises header plus rows, each field through {!quote}. *)

val quote : string -> string
(** One CSV field: unchanged unless it contains a comma, a double quote,
    [\n] or [\r], else wrapped in double quotes with each inner double
    quote doubled (RFC 4180). *)
