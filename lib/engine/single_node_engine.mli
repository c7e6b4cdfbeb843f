(** Single-node engine (the GraphScope role): the async runtime on one
    node with a hand-optimized-plugin cost discount and a per-node memory
    capacity that triggers swapping when the graph no longer fits. *)

(** Open a service session (see {!Engine.service_handle}); the async
    handle with the single-node topology and cost discount applied.
    [Engine.run_via_start] runs a closed batch on it. *)
val start :
  ?common:Engine.Common.t ->
  ?memory_capacity:int ->
  workers:int ->
  base_config:Cluster.config ->
  graph:Graph.t ->
  unit ->
  Engine.service_handle
