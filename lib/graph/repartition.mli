(** Query-aware partition refinement: greedy label propagation over a
    profile of observed cross-partition traversal traffic, under a
    per-partition size cap. Pure table manipulation — the engine applies
    the returned moves through its migration protocol. *)

type move = {
  vertex : int;
  src : int; (** owner before refinement *)
  dst : int; (** proposed owner *)
}

type stats = {
  cut_before : int; (** profiled weight crossing partitions, before *)
  cut_after : int;
  total_weight : int; (** total profiled weight (cut + internal) *)
  moves : int;
  imbalance_before : float;
  imbalance_after : float;
  passes : int;
}

(** [refine ~n_parts ~assignment edges] proposes vertex moves minimizing
    the cut weight of the profiled [edges] — [(u, v, weight)] traversal
    traffic — starting from the owner table [assignment] (not mutated).
    No partition grows past [max_imbalance] times the mean vertex count
    (but always at least the ceiling perfect balance needs); when
    [max_heat_imbalance] is given, no partition accumulates more than
    that factor times the mean profiled traffic either, so co-location
    cannot serialize a hot workload onto a few workers. Moves are
    returned in ascending vertex order; deterministic for equal input. *)
val refine :
  ?max_imbalance:float ->
  ?max_heat_imbalance:float ->
  ?max_passes:int ->
  ?max_moves:int ->
  n_parts:int ->
  assignment:int array ->
  (int * int * int) array ->
  move list * stats

(** Profiled weight whose endpoints live in different partitions. *)
val cut_weight : assignment:int array -> (int * int * int) array -> int

(** Max-over-mean of explicit per-partition vertex counts (1.0 when
    there is nothing to balance). *)
val imbalance_of : n_vertices:int -> int array -> float

(** A refinement of a profiled run: the refined owner table, the moves
    that lead to it from the starting owners, and the stats. *)
type refinement = { table : int array; moved : move list; stats : stats }

(** [refine_profile partition profile] refines [partition]'s current
    owners (e.g. a fresh Hash partition, for an offline refinement of a
    profiled hash run) against [profile], traffic edges as
    [(src, dst, count, bytes)] ([Pstm_obs.Traffic.edges]), weighted by
    bytes. The optional limits are {!refine}'s. [partition] is not
    mutated. *)
val refine_profile :
  ?max_imbalance:float ->
  ?max_heat_imbalance:float ->
  ?max_moves:int ->
  Partition.t ->
  (int * int * int * int) array ->
  refinement
