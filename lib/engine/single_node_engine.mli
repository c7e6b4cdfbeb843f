(** Single-node engine (the GraphScope role): the async runtime on one
    node with a hand-optimized-plugin cost discount and a per-node memory
    capacity that triggers swapping when the graph no longer fits. *)

(** Per-node memory in bytes (384 MB). *)
val default_memory_capacity : int

(** Open a service session (see {!Engine.service_handle}); the async
    handle with the single-node topology and cost discount applied.
    [Engine.run_via_start] runs a closed batch on it. Applied to its
    first three arguments, it is an {!Engine.S} [start]. *)
val start :
  memory_capacity:int ->
  workers:int ->
  base_config:Cluster.config ->
  ?common:Engine.Common.t ->
  graph:Graph.t ->
  unit ->
  Engine.service_handle
