(** Traversers: the (v, psi, pi, w) tuples that execute a PSTM program. *)

type t = {
  vertex : int; (** current position v *)
  step : int; (** index of the step to execute next (psi) *)
  weight : Weight.t; (** progression weight w *)
  regs : Value.t array; (** local variables pi; treat as immutable *)
}

val make : vertex:int -> step:int -> weight:Weight.t -> n_registers:int -> t
val move : t -> vertex:int -> step:int -> weight:Weight.t -> t
val at_step : t -> int -> t
val with_weight : t -> Weight.t -> t

(** Functional register write (copies the file). *)
val set_reg : t -> int -> Value.t -> t

val set_regs : t -> (int * Value.t) list -> t

(** Estimated serialized size for network accounting. *)
val bytes : t -> int

val pp : Format.formatter -> t -> unit
