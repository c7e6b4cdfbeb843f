(** Simulated time in integer nanoseconds. *)

type t = int

val zero : t
val ns : int -> t
val us : int -> t
val ms : int -> t
val s : int -> t
val of_float_ns : float -> t
val to_ns : t -> int
val to_ms : t -> float
val to_s : t -> float
val add : t -> t -> t
val diff : t -> t -> t
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
