(** Partitionable partial-aggregate state (§III-C).

    Lifecycle: each worker {!create}s a partial in its memo, {!accumulate}s
    local traversers into it, and on subquery termination the coordinator
    {!merge}s all partials and {!finalize}s the combined value. A state
    can be {!reset} and reused by a later query of the same shape. *)

type t

val create : Step.agg -> t

(** Fold one traverser (evaluating the aggregation's expressions in its
    context) into the partial state. *)
val accumulate : Step.agg -> t -> Graph.t -> vertex:int -> regs:Value.t array -> unit

(** Combine [t] into [into]; commutative and associative. *)
val merge : into:t -> t -> unit

(** [t] has the shape {!create} gives [agg] (same kind, same top-k [k],
    same collect limit), so {!reset} makes it a fresh state for [agg]. *)
val fits : Step.agg -> t -> bool

(** Empty [t] for reuse, keeping its storage (a top-k's lanes). *)
val reset : t -> unit

(** The aggregated value: [Int] for counts, [List] for top-k / collect /
    group results (group entries are [List [key; Int count]] sorted by
    key). *)
val finalize : t -> Value.t

(** Serialized size of the partial, for network accounting. *)
val bytes : t -> int
