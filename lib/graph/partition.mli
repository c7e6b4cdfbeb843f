(** The partitioning function [H : V -> PartId] of the partitioned stateful
    graph model. One partition per worker. *)

type strategy =
  | Hash (** mixed hash of the id — the paper's scheme *)
  | Mod (** [v mod n_parts] — ablation; clusters generator hubs *)
  | Block (** contiguous ranges — ablation *)
  | Adaptive (** explicit per-vertex table, rewritable at runtime *)
  | Table of int array
      (** fixed per-vertex table (copied at {!create}), e.g. a refinement
          computed offline from a profiled run *)

type t

(** [Adaptive] starts from the Hash placement. A [Table] must have one
    in-range entry per vertex. *)
val create : ?strategy:strategy -> n_parts:int -> n_vertices:int -> unit -> t

val n_parts : t -> int

(** Owning partition of a vertex. *)
val owner : t -> int -> int

(** Rewrite a vertex's owner. Only valid on [Adaptive] partitions. *)
val set_owner : t -> int -> int -> unit

(** Snapshot of the current owner table (a fresh array). *)
val to_assignment : t -> int array

(** Vertices owned by a partition, ascending. *)
val members : t -> int -> int array

val size_of : t -> int -> int

(** Max partition size over mean size; 1.0 is perfect balance. Defined as
    1.0 when there are no vertices or more partitions than vertices. *)
val imbalance : t -> float
