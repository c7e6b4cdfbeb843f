(** The asynchronous PSTM runtime (GraphDance's engine), plus the paper's
    comparison systems implemented on the same codebase:

    - {!Banyan_like}: dataflow with per-operator instantiation in every
      worker (scheduling overhead grows with live operators).
    - {!Gaia_like}: the same, plus centralized stateful operators.
    - [shared_state]: the non-partitioned graph model of Figure 8.
    - [weight_coalescing = false]: the Figure 10/11 ablation. *)

type flavor =
  | Graphdance
  | Banyan_like
  | Gaia_like

val flavor_name : flavor -> string

(** Knobs of the online repartitioner (only read when
    [partition = Partition.Adaptive]). Refinement rounds are triggered
    lazily from the remote-dispatch path: a round fires when at least
    [min_traffic] cross-partition traversals have been profiled since the
    last round and [refine_interval] simulated time has elapsed. Each
    round caps partition size at 1.1x and profiled traffic at 1.5x the
    mean, and moves at most 1024 vertices. *)
type adaptive_options = {
  refine_interval : Sim_time.t;  (** minimum spacing between refinement rounds *)
  min_traffic : int;  (** fresh profiled traversals needed to consider a round *)
}

type options = {
  flavor : flavor;
  weight_coalescing : bool;
  shared_state : bool;
  memory_capacity : int option;
      (** per-node memory budget; a graph exceeding the cluster total
          makes data access pay a 60x swap penalty (the single-node study) *)
  partition : Partition.strategy; (** the H of the partitioned graph model *)
  adaptive : adaptive_options;
      (** online-repartitioning knobs, read only under [Partition.Adaptive] *)
}

val default_options : options

(** Run the submissions to completion (or until [common.deadline]) on a
    simulated cluster; returns latencies, rows, and channel metrics.

    [common] carries the cross-cutting knobs shared by every engine
    ({!Engine.Common}): recorder, sanitizer mode, deadline and an
    optional fault schedule.

    [common.check] enables the runtime sanitizer: per-exec weight
    conservation, tracker overshoot detection, and (when neither a
    deadline nor an abandoned packet cut delivery short) termination of
    every query plus memo emptiness at the end; the first violated
    invariant raises {!Engine.Check_violation}.

    [common.faults] attaches a deterministic fault plane: packets can
    drop, duplicate or take delay spikes, nodes can run slow or pause —
    and the channel switches to sequence-numbered reliable delivery so
    completed queries still return exact results. Queries that cannot
    finish (a partition paused past the deadline, a packet abandoned
    after max retries) degrade to TIMEOUT with their memos reclaimed
    rather than wedging the tracker. *)
val run :
  ?options:options ->
  ?common:Engine.Common.t ->
  cluster_config:Cluster.config ->
  channel_config:Channel.config ->
  graph:Graph.t ->
  Engine.submission array ->
  Engine.report

(** Open a service session on the engine (see {!Engine.service_handle}):
    the query service layer submits, cancels and observes completions
    while the simulation runs, instead of handing over a closed array.
    [run] is [create] + submit-all + drive-to-completion + finish, so the
    two entry points cannot drift. *)
val create :
  ?options:options ->
  ?common:Engine.Common.t ->
  cluster_config:Cluster.config ->
  channel_config:Channel.config ->
  graph:Graph.t ->
  unit ->
  Engine.service_handle
