(** Online vertex migration (adaptive repartitioning): the traffic
    profile, refinement rounds, the execution gate (run, forward or
    stash) and the memo hand-off with its stash drain. Functions return
    the CPU cost charged to the calling worker. *)

type t

(** [adaptive] turns rounds and the gate on. [centralized op]: the step
    runs on worker 0 (GAIA's stateful operators). [on_event name vertex]
    feeds the migration monitor; [live qid]: the query still runs.
    Messages are built in [slab]. *)
val create :
  graph:Graph.t ->
  partition:Partition.t ->
  adaptive:bool ->
  refine_interval:Sim_time.t ->
  min_traffic:int ->
  ?centralized:(Step.op -> bool) ->
  cost:Cost_model.t ->
  metrics:Metrics.t ->
  ?obs:Pstm_obs.Recorder.t ->
  ?mutation:Mutation.t ->
  ?on_event:(string -> int -> unit) ->
  live:(int -> bool) ->
  slab:Payload.slab ->
  send:Payload.send ->
  unit ->
  t

(** Profile a remote dispatch spawned on [src_vertex] (-1: none). *)
val profile_hop :
  t -> src_vertex:int -> Program.t -> vertex:int -> step:int -> regs:Value.t array -> bool

(** A refinement round, once enough fresh traffic and time passed. *)
val maybe_adapt : t -> at:Sim_time.t -> src:int -> cz:int -> Sim_time.t

(** Move [vertex] to worker [dst]: at most once per vertex. *)
val migrate : t -> at:Sim_time.t -> src:int -> cz:int -> vertex:int -> dst:int -> Sim_time.t

(** Gate a group of query [qid] at [w]: forward the traversers whose
    stateful key moved away, stash those whose entries are in flight
    here, keep the rest (with their causal contexts) in order. *)
val gate :
  t -> at:Sim_time.t -> w:int -> qid:int -> Program.t -> Travs.t -> int Vec.t -> Sim_time.t

(** A migration payload consumed at [w] under context [cz]: the old
    owner ships the vertex's entries from [memo]; the new owner installs
    them, then drains the stashed message handles onto [tasks] in arrival
    order. *)
val handle :
  t -> at:Sim_time.t -> w:int -> Memo.t -> int Ring.t -> cz:int -> Payload.t -> Sim_time.t
