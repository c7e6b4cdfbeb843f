(** Concurrent query service layer over an open engine session.

    Turns any registry engine ({!Engine.S}) into a multi-tenant query
    service facing open-loop traffic: per-tenant queues under
    weighted-fair scheduling with strict priority classes, admission
    control that sheds at enqueue when the projected latency would blow
    the p99 SLO, client abandonment (patience) via scoped cancellation,
    and optional per-query deadlines. Runs are deterministic: all
    randomness comes from the seeded arrival generators, all time is the
    engine's simulated time. *)

type tenant_config = {
  weight : float;  (** weighted-fair share, > 0 *)
  priority : int;  (** strict class: higher always dispatches first *)
  arrivals : Arrival.process;
  patience : Sim_time.t option;
      (** the client abandons the query (queued: silently; mid-flight:
          scoped engine cancellation) once this much time passes *)
}

val tenant :
  ?weight:float -> ?priority:int -> ?patience:Sim_time.t -> Arrival.process -> tenant_config

type config = {
  tenants : tenant_config array;
  horizon : Sim_time.t;  (** arrivals stop here; queued work still drains *)
  max_inflight : int;  (** dispatch window into the engine *)
  slo : Sim_time.t;  (** target p99 latency for admitted queries *)
  admission : bool;  (** load shedding on/off *)
  headroom : float;  (** shed when projected latency > headroom x SLO *)
  deadline_factor : float option;  (** per-query engine deadline, x SLO *)
  seed : int;
}

val config :
  ?max_inflight:int ->
  ?slo:Sim_time.t ->
  ?admission:bool ->
  ?headroom:float ->
  ?deadline_factor:float ->
  ?seed:int ->
  horizon:Sim_time.t ->
  tenant_config array ->
  config

(** One query's life as the service saw it. [Shed] queries never reached
    the engine; [Cancelled] covers both queue abandonment and mid-flight
    scoped cancellation. *)
type query = {
  q_tenant : int;
  q_priority : int;
  q_arrived : Sim_time.t;
  q_outcome : Engine.outcome;
  q_latency_ms : float option;  (** arrival to completion, completed only *)
}

type tenant_stats = {
  ts_offered : int;
  ts_admitted : int;
  ts_shed : int;
  ts_completed : int;
  ts_cancelled : int;
  ts_timed_out : int;
  ts_mean_ms : float;
  ts_p50_ms : float;
  ts_p99_ms : float;
}

type result = {
  r_engine : string;
  r_report : Engine.report;  (** admitted queries only, from the engine *)
  r_queries : query array;  (** every offered query, in arrival order *)
  r_per_tenant : tenant_stats array;
  r_duration : Sim_time.t;
}

(** Drive the whole service to completion: generate arrivals up to the
    horizon, schedule/shed/cancel against the engine session, drain, and
    aggregate. [program ~tenant ~seq] supplies the [seq]-th query of a
    tenant. *)
val run :
  (module Engine.S) ->
  ?common:Engine.Common.t ->
  graph:Graph.t ->
  config:config ->
  program:(tenant:int -> seq:int -> Program.t) ->
  unit ->
  result

val offered : result -> int
val admitted : result -> int
val shed : result -> int
val completed : result -> int
val cancelled : result -> int
val timed_out : result -> int
val shed_rate : result -> float

(** Latency aggregates over completed queries (arrival to completion). *)
val mean_ms : result -> float
val p50_ms : result -> float
val p99_ms : result -> float

(** Stable digest of a run (every query's life + engine event count),
    for determinism tests. *)
val fingerprint : result -> string

val result_json : result -> Pstm_obs.Json.t
