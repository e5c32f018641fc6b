(** Plain-text table rendering for experiment reports.

    The experiment harness prints every reproduced paper figure as an
    aligned text table (one row per x-axis point, one column per
    heuristic), so the output can be read in a terminal and diffed. *)

type align = Left | Right | Center

type t

val create : ?title:string -> (string * align) list -> t
(** [create headers] starts a table with the given column headers and
    alignments. *)

val add_row : t -> string list -> unit
(** Appends a row.  Rows shorter than the header are right-padded with
    empty cells; longer rows raise [Invalid_argument]. *)

val add_separator : t -> unit
(** Inserts a horizontal rule at the current position. *)

val render : t -> string
(** Renders the table with box-drawing in ASCII. *)

val print : t -> unit
(** [render] followed by [print_string] and a trailing newline. *)
