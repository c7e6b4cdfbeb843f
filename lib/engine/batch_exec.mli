(** Frontier-batched execution of fusable step chains (Expand / Filter /
    Set_reg), used by engines that opt into [Engine.Common.batched].

    A batch of traversers resident at one (partition, step) executes the
    maximal fusable chain breadth-first: CSR-range scans over the frontier
    with a bitset memo for register-free filter verdicts. Weight is split
    per-batch over each parent's surviving leaves, so Theorem 1 holds
    exactly (the async engine's sanitizer asserts it per group). The
    chain is {!Program.chain}, computed once per (program, step); once
    the scratch's buffers have grown, a batch over a chain without
    Set_reg allocates nothing. *)

(** Per-worker reusable scratch state: the bitset verdict memo and the
    frontier and weight-share buffers. *)
type scratch

val scratch : graph:Graph.t -> scratch

(** Is the op at this step eligible for fusion? *)
val fusable : Program.t -> int -> bool

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
