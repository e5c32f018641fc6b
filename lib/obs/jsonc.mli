(** Canonical JSON fragment encoders (DESIGN.md §12).

    One escaping and one float rendering shared by every JSON emitter in
    the observability layer, so exporter output is a pure function of
    the exported values — the property the journal's byte-identity
    contract ({!Journal}) and the Chrome trace's well-formedness both
    rest on. *)

val string : string -> string
(** Quoted JSON string literal; escapes quote, backslash and control
    characters. *)

val int : int -> string

val bool : bool -> string

val float : float -> string
(** Deterministic shortest form: integers render as ["42"], other
    finite values as the shortest of [%.12g]/[%.17g] that round-trips
    bit-exactly; non-finite values render as the tagged strings
    ["nan"], ["inf"], ["-inf"]. *)

val int_list : int list -> string
(** ["[1,2,3]"]. *)

val obj : (string * string) list -> string
(** Object literal from pre-rendered field values, in the given field
    order (no sorting — field order is part of the canonical form). *)
