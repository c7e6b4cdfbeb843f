(** Property values carried by vertices, edges and traverser variables. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Vertex of int
  | Edge of int
  | List of t list

(** Total order: [Null] sorts first; [Int] and [Float] compare numerically
    against each other; other constructors compare within their own kind. *)
val compare : t -> t -> int

(** [Int n], without allocating for [0 <= n < 256]: each such [n] has
    one preallocated, shared box. Values are immutable and no code
    compares them physically, so a shared box reads like a fresh one. *)
val int : int -> t

val equal : t -> t -> bool
val hash : t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** Estimated serialized size, charged against simulated network
    bandwidth when values cross partitions. *)
val bytes : t -> int

val is_null : t -> bool
val to_int : t -> int option
val to_int_exn : t -> int
val to_float : t -> float option
val to_float_exn : t -> float
val vertex_exn : t -> int

(** Numeric addition with [Null] as identity. *)
val add : t -> t -> t
