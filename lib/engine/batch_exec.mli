(** Frontier-batched execution of fusable step chains (Expand / Filter /
    Set_reg), used by engines that opt into [Engine.Common.batched].

    A batch of traversers resident at one (partition, step) executes the
    maximal fusable chain breadth-first: CSR-range scans over the frontier
    with a bitset memo for register-free filter verdicts. Weight is split
    per-batch over each parent's surviving leaves, so Theorem 1 holds
    exactly (the async engine's sanitizer asserts it per group). *)

(** Per-worker reusable scratch state (bitset verdict memo). *)
type scratch

val scratch : graph:Graph.t -> scratch

(** Is the op at this step eligible for fusion? *)
val fusable : Program.t -> int -> bool

(** Maximal fusable chain starting at a step: the chain's step indices in
    execution order, and the exit step surviving leaves land on. *)
val chain : Program.t -> int -> int list * int

(** Surviving leaves at the exit step, unmaterialized: traversers are
    constructed on demand by {!iter_spawns}, so large batches never
    push records through the GC write barrier twice. A view into the
    scratch's reusable buffers (and the input batch array): valid until
    the next {!run} on the same scratch — consume before executing
    another batch. *)
type spawns

type outcome = {
  spawns : spawns;
  finished : Weight.t; (** weight of pruned / childless branches *)
  edges_scanned : int;
  prop_reads : int;
}

(** [iter_spawns o f] calls [f ~parent child] for each surviving leaf,
    in frontier order, where [parent] is the batch index of the input
    traverser the leaf descends from. *)
val iter_spawns : outcome -> (parent:int -> Traverser.t -> unit) -> unit

(** Run the fusable chain rooted at [step] over the whole batch. All of
    [travs] must sit at [step], which must satisfy {!fusable}. *)
val run :
  graph:Graph.t ->
  scratch:scratch ->
  prng:Prng.t ->
  program:Program.t ->
  step:int ->
  Traverser.t array ->
  outcome
