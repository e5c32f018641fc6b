(** Catalog of basic-object types.

    A basic object is a continuously-updated piece of data (a sensor
    stream, a database relation fragment) identified by its type index.
    Each type [k] has a size [delta_k] in MB and a refresh frequency
    [f_k] in 1/s; a processor using the object must download it at rate
    [rate_k = delta_k * f_k] MB/s (paper §2.1). *)

type t

val uniform_freq : sizes:float array -> freq:float -> t
(** All types share one download frequency (the paper's high/low
    regimes). *)

val count : t -> int
(** Number of object types. *)

val size : t -> int -> float
(** [size t k] is [delta_k] in MB. *)

val freq : t -> int -> float
(** [freq t k] is [f_k] in 1/s. *)

val rate : t -> int -> float
(** [rate t k = delta_k * f_k] in MB/s — bandwidth consumed on every
    network card and link the object crosses. *)

val with_freq : t -> float -> t
(** Same sizes, new uniform frequency (used by the download-rate sweep
    experiment). *)

