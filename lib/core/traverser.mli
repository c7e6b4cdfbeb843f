(** Traversers: the (v, psi, pi, w) tuples that execute a PSTM program. *)

type t = {
  vertex : int; (** current position v *)
  step : int; (** index of the step to execute next (psi) *)
  weight : Weight.t; (** progression weight w *)
  regs : Value.t array; (** local variables pi; treat as immutable *)
}

val make : vertex:int -> step:int -> weight:Weight.t -> n_registers:int -> t

(** Functional register write (copies the file). *)
val set_reg : t -> int -> Value.t -> t

(** Estimated serialized size of a traverser with this register file,
    for network accounting. *)
val wire_bytes : Value.t array -> int

(** [wire_bytes t.regs]. *)
val bytes : t -> int

val pp : Format.formatter -> t -> unit
