(** The property graph [G = (V, E, lambda)], immutable after construction.

    Vertices and edges are dense integer ids. Both directions are
    materialized; edge ids are shared so edge properties are reachable when
    traversing inward as well. *)

type direction =
  | Out
  | In
  | Both

val pp_direction : Format.formatter -> direction -> unit

type t

val schema : t -> Schema.t
val n_vertices : t -> int
val n_edges : t -> int
val vertex_label : t -> int -> int

(** [has_vertex_label t ~label v] — does vertex [v] carry [label]? *)
val has_vertex_label : t -> label:int -> int -> bool

(** Edge endpoints: the special [_src] / [_dest] keys of the paper. *)
val edge_src : t -> int -> int

val edge_dst : t -> int -> int
val edge_label : t -> int -> int
val out_degree : t -> int -> int
val in_degree : t -> int -> int
val degree : t -> dir:direction -> int -> int

(** Visit adjacent vertices; [target] is the far endpoint regardless of
    direction. *)
val iter_adjacent :
  t ->
  dir:direction ->
  ?label:int ->
  int ->
  (target:int -> edge_id:int -> label:int -> unit) ->
  unit

val adjacent : t -> dir:direction -> ?label:int -> int -> int array

(** Direct CSR handles for one traversal direction ([Both] has no single
    CSR). Batch frontier scans use these with {!Csr.offset} /
    {!Csr.target_at} to sweep adjacency ranges closure-free. *)
val out_csr : t -> Csr.t

val in_csr : t -> Csr.t
val vertex_prop : t -> key:int -> int -> Value.t

(** [Value.compare (vertex_prop t ~key v) c], boxing nothing when the
    property is an integer column and [c] an [Int], or a string column
    and [c] a [Str]. *)
val compare_vertex_prop : t -> key:int -> int -> Value.t -> int

(** The vertex property [key] is an integer column. *)
val int_prop_column : t -> key:int -> bool

(** [v]'s cell in the integer column [key], unboxed. Raises [Not_found]
    when the cell is empty or the column is not an integer column;
    allocates nothing either way. *)
val vertex_int_prop : t -> key:int -> int -> int

(** The vertex property [key] is a string column. *)
val str_prop_column : t -> key:int -> bool

(** [v]'s cell in the string column [key], unboxed. Raises [Not_found]
    when the cell is empty or the column is not a string column;
    allocates nothing either way. *)
val vertex_str_prop : t -> key:int -> int -> string

(** Convenience lookup by property-key name; [Null] when the key or value
    is absent. *)
val vertex_prop_by_name : t -> key:string -> int -> Value.t

val edge_prop : t -> key:int -> int -> Value.t
val iter_vertices : t -> (int -> unit) -> unit
val iter_vertices_with_label : t -> int -> (int -> unit) -> unit

(** Mean out-degree (optionally per edge label); feeds planner cardinality
    estimates. *)
val avg_degree : t -> dir:direction -> ?label:int -> unit -> float

(** Degree statistics of one edge label: its edge count and the number
    of distinct sources and targets carrying it (each at least 1). *)
type label_stats = {
  count : int;
  distinct_sources : int;
  distinct_targets : int;
}

(** Statistics of every edge label present, computed on the first call
    and kept with the graph. *)
val label_stats : t -> (int, label_stats) Hashtbl.t

(** Build (or reuse) a hash index on a vertex property and look a value up.
    Backs the IndexLookup step. *)
val index_lookup : t -> ?vertex_label:int -> key:int -> Value.t -> int array

(** Estimated in-memory size in bytes (Table II's "raw size"). *)
val bytes : t -> int

(** Assemble a graph; used by {!Builder}. *)
val make :
  schema:Schema.t ->
  n_vertices:int ->
  vertex_label:int array ->
  out_csr:Csr.t ->
  in_csr:Csr.t ->
  vertex_props:Props.t ->
  edge_props:Props.t ->
  edge_src:int array ->
  edge_dst:int array ->
  edge_label_by_id:int array ->
  t
