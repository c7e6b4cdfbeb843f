(** Declarative protocol state machines with a static totality checker and
    compiled runtime conformance monitors.

    One [spec] yields two artifacts: {!check_spec} statically proves the
    machine total (every message handled or explicitly rejected in every
    reachable state, deterministic, no orphan states, no send declared
    from a terminal state), and {!compile}/{!monitor} turn it into a dense
    transition table the engines feed under [~check:true]. Hitting a
    reject entry at runtime is a protocol violation carrying the spec's
    own explanation. *)

(** A protocol state machine over string-named states and message kinds.
    [trans] are legal steps, [rejects] are explicitly-illegal steps with
    the reason they are illegal, and [emits] declares from which states
    the machine itself originates a message (sends). *)
type spec = {
  sp_name : string;
  states : string list;
  msgs : string list;
  initial : string;
  terminals : string list;
  trans : (string * string * string) list;  (** state, msg, next state *)
  rejects : (string * string * string) list;  (** state, msg, reason *)
  emits : (string * string) list;  (** state, msg *)
}

type defect = {
  d_spec : string;
  d_what : string;
}

val pp_defect : Format.formatter -> defect -> unit

(** Static well-formedness + totality check; [[]] means the spec is
    proven total over its reachable states. *)
val check_spec : spec -> defect list

(** Spec compiled to dense int tables. *)
type compiled

(** Raises [Invalid_argument] listing the defects if {!check_spec} finds
    any. *)
val compile : spec -> compiled

(** Resolve a message name to its dense id (raises on unknown names). *)
val msg : compiled -> string -> int

(** A per-run monitor: a map from instance key (link/seq pair, vertex id,
    (query, phase) pair — caller-encoded as an int) to machine state. *)
type monitor

val monitor : compiled -> monitor

(** Feed one observed message to one instance. [None] means conformant;
    [Some why] is a violation description. Instances are created lazily
    in the initial state. *)
val step : monitor -> key:int -> msg:int -> string option

(** After the run drains: every touched instance must sit in a terminal
    state. Callers gate this on "no deadline truncation, nothing
    abandoned". Returns the lowest-keyed stuck instance, if any. *)
val finish : monitor -> string option

(** Number of instances touched so far. *)
val instances : monitor -> int

(** {2 The shipped specs} *)

(** Reliable channel delivery — one instance per (link, sequence number). *)
val channel_spec : spec

(** Mid-query vertex migration — one instance per migrated vertex. *)
val migration_spec : spec

(** Tracker lifecycle — one instance per (query, phase). *)
val tracker_spec : spec

val all_specs : spec list

val channel : compiled Lazy.t
val migration : compiled Lazy.t
val tracker : compiled Lazy.t
