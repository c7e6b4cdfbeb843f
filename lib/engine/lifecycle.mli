(** The query lifecycle every engine session shares (async, BSP and the
    oracle): the qid table, the terminal transition, the end-of-run
    timeout sweep and sanitizer post-conditions, the stop time, the
    report and the {!Engine.service_handle}. *)

type 'a query = {
  qid : int;
  program : Program.t;
  coordinator : int;  (** [qid mod n_workers] *)
  tenant : int;
  priority : int;
  submitted : Sim_time.t;
  deadline_at : Sim_time.t option;  (** [submitted] plus the query's own budget *)
  mutable outcome : Engine.outcome option;  (** [None] while live *)
  rows : Value.t array Vec.t;
  touched : Bitset.t;  (** workers that executed one of its traversers *)
  ext : 'a;  (** the engine's own per-query state *)
}

type 'a t

(** [schedule time f] runs [f] at [time] on the session clock [now].
    [common] supplies the recorder, the sanitizer switch and the
    run-level deadline. *)
val create :
  name:string ->
  n_workers:int ->
  ?common:Engine.Common.t ->
  now:(unit -> Sim_time.t) ->
  schedule:(Sim_time.t -> (unit -> unit) -> unit) ->
  unit ->
  'a t

(** Register a submission under the next qid. With [launch], schedule
    [launch at q] at its arrival (or now) and its timeout at its
    deadline. *)
val submit : ?launch:(Sim_time.t -> 'a query -> unit) -> 'a t -> Engine.submission -> 'a -> 'a query

val query : 'a t -> int -> 'a query

(** The stored query while it is live; allocates nothing. *)
val live : 'a t -> int -> 'a query option

val is_live : 'a query -> bool

(** Every query ever submitted, in qid order. *)
val iter : 'a t -> ('a query -> unit) -> unit

(** The queries still live, in qid order: [f] runs on each one live when
    the walk reaches it, and the walk costs O(live + recently ended), not
    O(submitted). Queries [f] submits are not visited. *)
val iter_live : 'a t -> ('a query -> unit) -> unit

(** The terminal transition. While [q] is live: record [outcome], trace
    it at [at] (default now), run [release] (the engine's reclaim) and
    fire the terminal callback; otherwise a no-op. *)
val end_query : 'a t -> ?at:Sim_time.t -> 'a query -> Engine.outcome -> (unit -> unit) -> unit

(** The engine's [terminate q Timed_out] for every query still live. *)
val sweep : 'a t -> unit

(** The earlier of [until] and the run-level deadline. *)
val stop : 'a t -> until:Sim_time.t option -> Sim_time.t option

(** Run [events] to {!stop}, or to completion. *)
val drive : 'a t -> Event_queue.t -> until:Sim_time.t option -> unit

(** A protocol-monitor feed ([~key] instance, message -> violation);
    inert unless the sanitizer is on. *)
val monitor :
  'a t -> Pstm_analysis.Protocol.compiled Lazy.t -> key:int -> string -> string option

(** Sanitizer post-conditions, prefixed [engine]: unless [cut], every
    query is terminal ([wedged q] says why not) and every monitor
    instance finished; every memo is empty. *)
val check_end :
  'a t -> string -> cut:bool -> wedged:('a query -> string) -> Memo.t array -> unit

val report :
  'a t ->
  makespan:Sim_time.t ->
  metrics:Metrics.t ->
  events:int ->
  worker_busy:Sim_time.t array ->
  Engine.report

(** The session surface; [terminate] is the engine's scoped end
    (cancellation, timeout), built on {!end_query}. *)
val handle :
  'a t ->
  submit:(Engine.submission -> int) ->
  terminate:('a query -> Engine.outcome -> unit) ->
  drive:(until:Sim_time.t option -> unit) ->
  finish:(unit -> Engine.report) ->
  Engine.service_handle
