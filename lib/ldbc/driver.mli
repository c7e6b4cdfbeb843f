(** LDBC SNB interactive workload driver.

    Queries are issued at per-type frequencies compressed by the TCR
    (lower TCR = higher rate, §V-A1); a system "keeps up" with a TCR when
    ≥95% of queries complete with tail latency inside the ~50 ms
    interactive budget. *)

type arrival = {
  name : string;
  make : Snb_gen.t -> Prng.t -> Program.t;
      (** staged: [make data] prepares the query once, and each
          [make data prng] draws and binds its parameters *)
  base_interval : Sim_time.t;
}

(** The IC + IS read mix with their relative frequencies. *)
val workload_mix : arrival list

type mixed_result = {
  tcr : float;
  per_query : (string * Stats.summary) list; (** latency (ms) by query type *)
  issued : int;
  completed : int;
  kept_up : bool;
  report : Engine.report;
}

(** Build the arrival schedule of a mixed run (sorted by arrival time;
    deterministic in the seed). *)
val schedule : Snb_gen.t -> tcr:float -> duration:Sim_time.t -> seed:int -> Engine.submission array

(** Run the read mix on the asynchronous (GraphDance) engine. [common]
    carries obs/check/seed/faults; its deadline is overridden with the
    run's own cutoff (duration + 500 ms). *)
val run_mixed_async :
  ?options:Async_engine.options ->
  ?channel:Channel.config ->
  ?common:Engine.Common.t ->
  cluster_config:Cluster.config ->
  duration:Sim_time.t ->
  tcr:float ->
  seed:int ->
  Snb_gen.t ->
  mixed_result

(** Run the read mix on the BSP engine (TigerGraph role by default);
    [common] as in {!run_mixed_async}. *)
val run_mixed_bsp :
  ?profile:Bsp_engine.profile ->
  ?common:Engine.Common.t ->
  cluster_config:Cluster.config ->
  duration:Sim_time.t ->
  tcr:float ->
  seed:int ->
  Snb_gen.t ->
  mixed_result

(** Minimum latency: queries one at a time, averaged over parameter
    draws; returns mean latency in ms. *)
val sequential_latency :
  run:(Engine.submission array -> Engine.report) ->
  make:(Snb_gen.t -> Prng.t -> Program.t) ->
  repeats:int ->
  seed:int ->
  Snb_gen.t ->
  float

(** Maximum throughput: a closed batch of [streams] concurrent instances;
    completed queries per simulated second. *)
val max_throughput :
  run:(Engine.submission array -> Engine.report) ->
  make:(Snb_gen.t -> Prng.t -> Program.t) ->
  streams:int ->
  seed:int ->
  Snb_gen.t ->
  float

type update_result = {
  per_kind : (string * Stats.summary) list;
  committed : int;
  aborted : int; (** always 0: updates run one at a time and never conflict *)
}

(** Run the update mix at the rate implied by [tcr], each update priced
    by {!Updates.simulated_latency}. *)
val run_updates : duration:Sim_time.t -> tcr:float -> seed:int -> Snb_gen.t -> update_result
