(** Compressed sparse row adjacency for one traversal direction. *)

type t

val n_vertices : t -> int
val n_edges : t -> int
val degree : t -> int -> int

(** Adjacency slice of a vertex as a half-open [lo, hi) index range into
    the position arrays; pair with the [*_at] accessors or
    {!fold_neighbors_range} for closure-free batch scans. *)
val slice : t -> int -> int * int

val target_at : t -> int -> int
val label_at : t -> int -> int

(** Fold over positions in [lo, hi), optionally restricted to one edge
    label. The callback receives only the position; callers read columns
    via the [*_at] accessors, avoiding per-edge tuple/closure allocation
    on the batch hot path. *)
val fold_neighbors_range :
  t -> ?label:int -> lo:int -> hi:int -> init:'acc -> f:('acc -> pos:int -> 'acc) -> 'acc

(** Visit each adjacent position of [v], optionally restricted to one edge
    label. [edge_id] is the global edge id, valid in both directions. *)
val iter_neighbors :
  t -> ?label:int -> int -> (target:int -> edge_id:int -> label:int -> unit) -> unit

(** Materialized neighbor array (allocates; prefer the iterators). *)
val neighbors : t -> ?label:int -> int -> int array

val degree_with_label : t -> int -> int -> int

(** Linear-time construction by counting sort on the source column. *)
val build :
  n_vertices:int ->
  sources:int array ->
  targets:int array ->
  labels:int array ->
  edge_ids:int array ->
  t

(** Estimated memory footprint in bytes. *)
val bytes : t -> int
