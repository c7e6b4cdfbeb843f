(** Partitionable partial-aggregate state (§III-C).

    Lifecycle: each worker {!create}s a partial in its memo, {!accumulate}s
    local traversers into it, and on subquery termination the coordinator
    {!merge}s all partials and {!finalize}s the combined value. A state
    can be {!reset} and reused by a later query of the same shape. *)

type t

(** A fresh state for [agg]. A top-k of vertices ([output] is
    [Vertex_id]) by an integer property ([score] is [Prop key] and [key]
    an [Ints] column of [graph]) keeps its pairs in int lanes and boxes
    nothing as it accumulates; it finalizes, merges and counts its bytes
    exactly as the boxed state does. Likewise a group count by a string
    property ([Group_count (Prop key)], [key] a [Strs] column) keys its
    groups by the cells' own strings and counts empty cells apart,
    boxing no key. Every other aggregation gets the boxed state. *)
val create : Graph.t -> Step.agg -> t

(** Fold one traverser (evaluating the aggregation's expressions in its
    context) into the partial state. *)
val accumulate : Step.agg -> t -> Graph.t -> vertex:int -> regs:Value.t array -> unit

(** Combine [t] into [into]; commutative and associative. *)
val merge : into:t -> t -> unit

(** [t] has the shape {!create} gives [agg] on [graph] (same kind, same
    top-k [k] and lanes, same collect limit, same group-count keys), so
    {!reset} makes it a fresh state for [agg]. *)
val fits : Graph.t -> Step.agg -> t -> bool

(** Empty [t] for reuse, keeping its storage (a top-k's lanes). *)
val reset : t -> unit

(** The aggregated value: [Int] for counts, [List] for top-k / collect /
    group results (group entries are [List [key; Int count]] sorted by
    key). *)
val finalize : t -> Value.t

(** Serialized size of the partial, for network accounting. *)
val bytes : t -> int
