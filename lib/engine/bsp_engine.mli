(** Bulk-synchronous-parallel engine: the TigerGraph-role baseline and the
    Figure 8 "BSP execution" ablation. Same programs, same step semantics,
    synchronous orchestration with global barriers. *)

type profile =
  | Ablation (** GraphDance costs under synchronous orchestration *)
  | Tigergraph_role (** interpreted commercial-baseline stand-in *)

val profile_name : profile -> string

(** [common.check] enables the runtime sanitizer (per-exec weight
    conservation; termination and memo emptiness when no deadline
    applies); violations raise {!Engine.Check_violation}. [common.obs]
    attaches a query-scoped recorder (per-worker compute and
    superstep/barrier spans, per-query instants, per-step operator
    stats). Of [common.faults], only the
    schedule-driven faults apply: stragglers stretch a node's compute
    and pauses stall the barrier; the bulk exchange is closed-form, so
    the per-packet drop/duplicate/delay verdicts have no effect. *)
val run :
  ?profile:profile ->
  ?common:Engine.Common.t ->
  cluster_config:Cluster.config ->
  graph:Graph.t ->
  Engine.submission array ->
  Engine.report

(** Open a service session (see {!Engine.service_handle}). The BSP
    engine has no event queue, so caller events — submissions landing
    mid-run, cancellations, [sh_at] timers — take effect at barrier
    granularity: the first barrier whose clock passes the event time.
    [run] is [create] + submit-all + drive + finish. *)
val create :
  ?profile:profile ->
  ?common:Engine.Common.t ->
  cluster_config:Cluster.config ->
  graph:Graph.t ->
  unit ->
  Engine.service_handle
