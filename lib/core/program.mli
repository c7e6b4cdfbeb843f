(** Compiled PSTM programs with validated control flow and phase analysis.

    Aggregate steps are the only phase boundaries: each phase is the
    subquery feeding one aggregation (§III-C) and is termination-tracked
    independently by the engines. *)

type t

exception Invalid of string

(** Validate and analyze a program; raises {!Invalid} with a description
    of the first violation. This is the only structural check a program
    gets: it rejects an empty program or entry list, an entry that is not
    a source or a source that is not an entry, a successor out of range
    (a non-Emit step with [next = -1] included) or an Emit with one, a
    register out of range anywhere in a step (negative ones included), a
    step unreachable from the entries or reachable in two phases, two
    aggregates in one phase, and a join id without exactly one side of
    each kind, with matching payload arities, in one phase. *)
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

(** The steps a traverser at step [i] moves on to: a Visit's [next] and
    [cont], a Join's [cont], nothing for an Emit, and [next] for every
    other step. *)
val successors : t -> int -> int list

(** The opposite side of a Join step; raises on non-join steps. *)
val join_partner : t -> int -> int

val pp : Format.formatter -> t -> unit

(** {2 Templates}

    A query shape compiled once and bound to its literal values per
    submission. No check of {!make}, of the verifier, of the planner or
    of the strategies reads a literal's value, so checking a template
    checks every binding of it. *)

(** The marker literal of parameter slot [i]: an edge id no graph has.
    Build a template's program with [param i] wherever parameter [i]'s
    value goes (an index lookup's value or any [Const]). *)
val param : int -> Value.t

type template

(** [template ~params p] records, once, the steps of [p] holding a
    marker and how to rebuild each one's op from the parameter values.
    Raises {!Invalid} if a marker names a slot at or past [params], or
    if a step routes by a parameter (its routing could not be shared). *)
val template : params:int -> t -> template

(** [bind tpl values] is the template's program with [values.(i)] in
    place of every [param i]: equal to the program built with those
    values directly. It shares every analysis array of the template;
    only the steps holding a parameter get a new op. Raises
    [Invalid_argument] unless [values] has [params] entries. *)
val bind : template -> Value.t array -> t
