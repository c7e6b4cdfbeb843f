(** SNAP edge-list I/O: load the paper's real datasets (LiveJournal,
    Friendster) where available, or round-trip generated graphs.

    Format: ['#']-prefixed comment lines, then one whitespace- or
    comma-separated "src dst" pair per line. Vertex ids are remapped to a
    dense range; every vertex receives the [id] and [weight] properties
    the k-hop benchmarks use. *)

exception Parse_error of string

(** [load path] reads a SNAP file. [symmetrize] stores each edge in both
    directions (social-network semantics). *)
val load : ?symmetrize:bool -> ?weight_seed:int -> string -> Graph.t

(** Write the out-adjacency as a SNAP edge list. *)
val save : Graph.t -> string -> unit
