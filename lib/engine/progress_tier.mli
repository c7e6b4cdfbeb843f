(** The async engine's progress tier (§IV-A): per-worker weight
    coalescers, the per-phase trackers on each query's coordinator, phase
    completion and the aggregate combine. Functions return the CPU cost
    charged to worker [w]. *)

(** A query's progress state, carried as its lifecycle [ext]. *)
type query = {
  trackers : Progress.tracker array;  (** one per phase *)
  mutable launched : bool;  (** the trackers registered *)
  mutable setup_acks : int;  (** dataflow deployment acks outstanding *)
  mutable combine_step : int;  (** aggregate step being combined, or -1 *)
  mutable combine_expected : int;
  mutable combine_received : int;
  mutable combine_acc : Aggregate.t option;  (** the coordinator's accumulator *)
}

type q = query Lifecycle.query

val state : Program.t -> query

type t

(** [graph] is the one the queries run on (it picks the accumulators'
    state, {!Aggregate.create}). [coalescing]: finished weights merge
    per worker until a flush, each merge charged when [per_traverser].
    [responders] answer aggregate
    flushes; [on_event] feeds the tracker monitor; [live] finds a live
    query; messages are built in [slab]; [complete] ends one whose last
    phase completed. *)
val create :
  graph:Graph.t ->
  costs:Cluster.costs ->
  metrics:Metrics.t ->
  n_workers:int ->
  coalescing:bool ->
  per_traverser:bool ->
  responders:int array ->
  ?check:bool ->
  ?mutation:Mutation.t ->
  ?obs:Pstm_obs.Recorder.t ->
  ?on_event:(string -> qid:int -> phase:int -> unit) ->
  live:(int -> q option) ->
  slab:Payload.slab ->
  send:Payload.send ->
  complete:(at:Sim_time.t -> cz:int -> w:int -> q -> Sim_time.t) ->
  unit ->
  t

(** The query launched (its trackers register) / ended early (open
    trackers time out, coalesced weight drops, a combine in progress
    recycles its accumulator). *)
val launch : t -> q -> unit

val cancel : t -> q -> unit

(** Weight that terminated at [w] in a phase: coalesced, or sent on. *)
val finish_weight : t -> at:Sim_time.t -> cz:int -> w:int -> q -> int -> Weight.t -> Sim_time.t

(** A tracker receipt for a phase on the coordinator [w]. *)
val receive : t -> at:Sim_time.t -> cz:int -> w:int -> q -> int -> Weight.t -> Sim_time.t

(** Enough weight merged at [w] for a {!flush} to live queries. *)
val flush_due : t -> w:int -> bool

val flush : t -> at:Sim_time.t -> w:int -> Sim_time.t

(** Answer an aggregate flush with [w]'s partial from [memo]: a
    [P_agg_partial] holding it, or [P_agg_empty]. *)
val respond : t -> at:Sim_time.t -> w:int -> Memo.t -> q -> agg_step:int -> cz:int -> Sim_time.t

(** Merge one responder's answer into the coordinator's accumulator,
    leaving the responder's partial unchanged; once all are in, the
    register file of the next phase's root ({!Exec.continuation}), and the
    accumulator is recycled. *)
val combine : t -> q -> Payload.t -> Value.t array option

(** Sanitizer: raise if a coalescer still holds weight. *)
val check_drained : t -> unit
