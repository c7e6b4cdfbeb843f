(** Single-step interpreter: the shared operational semantics of PSTM
    steps. Engines differ only in where and when they call {!run}. *)

(** Reusable buffers of a sink (expand targets, weight shares). *)
type scratch

(** What executed steps produced, accumulated over every {!run} since the
    last {!clear}. The caller owns the sink and reuses it: {!run} only
    pushes and adds, and a child is four lane words, so once the sink's
    lanes have grown a call allocates just the register files its
    children write. *)
type sink = {
  spawns : Travs.t; (** children in spawn order, to be routed by the caller *)
  parents : int Vec.t;  (** [parents.(i)] is the vertex spawn [i]'s parent was at *)
  rows : Value.t array Vec.t; (** emitted result rows *)
  mutable row_weight : Weight.t; (** summed weight of [rows] *)
  mutable finished : Weight.t; (** weight that terminated at these steps *)
  mutable edges_scanned : int;
  mutable prop_reads : int;
  mutable memo_ops : int;
  mutable memo_hits : int;  (** memo probes answered from existing state *)
  mutable memo_misses : int;  (** memo probes that created or missed state *)
  scratch : scratch;
}

val sink : unit -> sink

(** Empty the sink: no spawns or rows, zero weights and counts. *)
val clear : sink -> unit

(** Push one child, spawned by a traverser at vertex [parent]. *)
val spawn :
  sink -> parent:int -> vertex:int -> step:int -> weight:Weight.t -> regs:Value.t array -> unit

(** Execute the traverser ([vertex], [step], [weight], [regs]) through
    its current step against the partition memo of the worker it is on,
    adding the result to the sink. [scan] supplies the vertex domain of
    Scan sources (the whole graph for the reference engine, the partition
    members for distributed workers). Maintains weight conservation:
    input weight = spawned + row + finished weights added by this
    call. *)
val run :
  sink ->
  graph:Graph.t ->
  memo:Memo.t ->
  prng:Prng.t ->
  qid:int ->
  program:Program.t ->
  scan:(int option -> int array) ->
  vertex:int ->
  step:int ->
  weight:Weight.t ->
  regs:Value.t array ->
  unit

(** Does the sink's whole content conserve the input [weight] (spawned +
    rows + finished = input)? Clear the sink before the {!run} to check.
    Used by the engines' sanitizer ([~check:true]) mode. *)
val conserves : weight:Weight.t -> sink -> bool

(** The routing function h_psi (§III-A): the worker that runs the
    traverser's current step — the owner of its vertex or of its key's
    vertex, the key's hash over the workers, or [coordinator]. *)
val route :
  graph:Graph.t ->
  partition:Partition.t ->
  coordinator:int ->
  Program.t ->
  vertex:int ->
  step:int ->
  regs:Value.t array ->
  int

(** The message kind a traverser at [step] travels as: a result when the
    step is Emit. *)
val msg_kind : Program.t -> int -> Metrics.msg_kind

(** The Scan domain of a partition with the (lazily computed) [members]:
    all of them, or those with the requested vertex label. Pass it
    partially applied as {!run}'s [scan]. *)
val partition_scan : Graph.t -> int array Lazy.t -> int option -> int array

(** The register file of the root traverser that opens the phase after
    the aggregate at [agg_step] (§III-C), at vertex 0, the aggregate
    step's [next] and {!Weight.root}: the aggregate's register holds the
    finalized combined partial, or the empty aggregate's value when no
    partial exists. *)
val continuation : Graph.t -> Program.t -> agg_step:int -> Aggregate.t option -> Value.t array

(** CPU time of the sink's work under a cluster cost table: one step
    dispatch plus its data and memo volume. *)
val cost : Cluster.costs -> sink -> Sim_time.t
