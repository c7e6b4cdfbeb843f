(** Compiled PSTM programs with validated control flow and phase analysis.

    Aggregate steps are the only phase boundaries: each phase is the
    subquery feeding one aggregation (§III-C) and is termination-tracked
    independently by the engines. *)

type t

exception Invalid of string

(** Validate and analyze a program; raises {!Invalid} with a description
    on malformed control flow, out-of-range registers, unpaired join
    sides, or phase conflicts. *)
val make : name:string -> steps:Step.t array -> n_registers:int -> entries:int array -> t

val name : t -> string
val steps : t -> Step.t array
val step : t -> int -> Step.t
val n_steps : t -> int
val n_registers : t -> int

(** Indices of source steps; each spawns an initial traverser stream. *)
val entries : t -> int array

val n_phases : t -> int
val phase_of_step : t -> int -> int

(** The Aggregate step closing a phase, or [None] for the final phase. *)
val agg_of_phase : t -> int -> int option

(** [Step.routing] of step [i], computed once by {!make}. *)
val routing : t -> int -> Step.routing

(** The fused chain rooted at step [i], computed once by {!make}: the
    maximal run of {!Step.fusable} steps linked by [next], in execution
    order, or [[||]] when step [i] is not fusable. *)
val chain : t -> int -> int array

(** The step the surviving leaves of {!chain}[ t i] land on ([i] itself
    when the chain is empty). *)
val chain_exit : t -> int -> int

(** The opposite side of a Join step; raises on non-join steps. *)
val join_partner : t -> int -> int

val pp : Format.formatter -> t -> unit
