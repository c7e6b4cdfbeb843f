(** Traversers as lanes: a growable vector of (v, psi, pi, w) tuples kept
    as four parallel arrays (vertex, step, weight, register file) instead
    of one record per traverser. Pushing copies four words into the lanes
    and allocates nothing once they have grown, so an engine that keeps
    its traversers here builds no record per child. Register files are
    shared, not copied: treat them as immutable. *)

type t

(** An empty vector. *)
val create : unit -> t

val length : t -> int

(** Append one traverser. *)
val push : t -> vertex:int -> step:int -> weight:Weight.t -> regs:Value.t array -> unit

(** The lanes of element [i]; each raises [Invalid_argument] unless
    [0 <= i < length t]. *)
val vertex : t -> int -> int

val step : t -> int -> int
val weight : t -> int -> Weight.t
val regs : t -> int -> Value.t array

(** Element [i] as a record, for the engines that queue records. *)
val get : t -> int -> Traverser.t

(** The sum of every element's weight. *)
val total_weight : t -> Weight.t

(** [move t ~src ~dst] overwrites element [dst] with element [src]
    (compaction in place). *)
val move : t -> src:int -> dst:int -> unit

(** [truncate t n] drops every element from index [n] on, keeping
    capacity and releasing their register files. *)
val truncate : t -> int -> unit

(** Remove every element, keeping capacity. *)
val clear : t -> unit
