(** Compressed sparse row adjacency for one traversal direction. *)

type t

val n_vertices : t -> int
val n_edges : t -> int
val degree : t -> int -> int

(** [v]'s adjacency slice is the half-open index range
    [[offset t v, offset t (v + 1))] into the position arrays; pair it
    with the [*_at] accessors for scans that allocate nothing. *)
val offset : t -> int -> int

val target_at : t -> int -> int
val label_at : t -> int -> int

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
