(** Frontier-batched execution of fusable step chains (Expand / Filter),
    used by engines that opt into [Engine.Common.batched].

    A batch of traversers resident at one (partition, step) executes the
    maximal fusable chain breadth-first over one packed frontier: CSR-range
    scans with a bitset memo for register-free filter verdicts. Weight is
    split per-batch over each parent's surviving leaves, so Theorem 1
    holds exactly (the async engine's sanitizer asserts it per group).
    The chain is {!Program.chain}, computed once per (program, step); once
    the scratch's buffers have grown, a batch allocates nothing. *)

(** Per-worker reusable scratch state: the bitset verdict memo and the
    frontier and weight-share buffers. *)
type scratch

val scratch : graph:Graph.t -> scratch

(** Does this step root a fused chain? Its op must be {!Step.fusable},
    and every vertex id of [graph] must fit the packed frontier (below
    2^31 - 1); otherwise the step runs on the scalar interpreter. *)
val fusable : graph:Graph.t -> Program.t -> int -> bool

(** Run the fusable chain rooted at [step] over the whole batch [travs],
    all of whose elements must sit at [step], which must satisfy
    {!fusable}. The surviving leaves at the exit step are pushed onto the
    sink's lanes in frontier order, each with the vertex of the input
    traverser it descends from as its parent; the finished weight of
    pruned / childless branches and the edge and property volume are
    added to the sink. *)
val run :
  graph:Graph.t ->
  scratch:scratch ->
  prng:Prng.t ->
  program:Program.t ->
  step:int ->
  Travs.t ->
  Exec.sink ->
  unit
