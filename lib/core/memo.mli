(** Per-partition query memoranda (§III-B).

    Records are scoped to the creating query and dropped wholesale when it
    terminates. Only the owning worker accesses a memo, so operations are
    synchronization-free. Query ids and labels (step indices) are
    non-negative; vertex keys are stored unboxed, in an int-keyed table
    per (query, label). Only writes create state: reads of an absent
    query or label allocate nothing, and a cleared query's state is
    recycled for later queries. *)

type entry =
  | Scalar of Value.t
  | Partial of Aggregate.t
  | Rows of Value.t array list

type t

val create : unit -> t

val live_entries : t -> int
val set : t -> qid:int -> label:int -> Value.t -> entry -> unit

(** Deduplication test-and-set: [true] iff the key was absent. *)
val add_if_absent : t -> qid:int -> label:int -> Value.t -> bool

(** [add_if_absent] keyed [Value.Vertex v], without boxing the key. *)
val add_vertex_if_absent : t -> qid:int -> label:int -> int -> bool

type visit_outcome =
  | First_visit
  | Improved
  | Not_improved

(** Record [d] as the distance of vertex [v] (keyed [Value.Vertex v]) if it
    improves the stored one. *)
val min_int_update : t -> qid:int -> label:int -> int -> int -> visit_outcome

(** Fetch-or-create the partial aggregate stored under [label], with the
    state {!Aggregate.create} gives [agg] on the graph. A new one is a
    recycled state of the same shape when a cleared query left one,
    reset. *)
val partial : t -> qid:int -> label:int -> Graph.t -> Step.agg -> Aggregate.t

val partial_opt : t -> qid:int -> label:int -> Aggregate.t option

(** [f p] for the partial [p] under [label], or [absent]: {!partial_opt}
    without the option. *)
val find_partial : t -> qid:int -> label:int -> absent:'a -> (Aggregate.t -> 'a) -> 'a

(** Double-pipelined join buckets. *)
val rows_add : t -> qid:int -> label:int -> Value.t -> Value.t array -> unit

val rows_get : t -> qid:int -> label:int -> Value.t -> Value.t array list

(** Wire size of an entry, for costing migration messages. *)
val entry_bytes : entry -> int

(** Remove and return every record keyed by [key] (any label, any query),
    as [(qid, label, entry)] sorted by (qid, label) — the re-homing side
    of vertex migration, at one lookup per (query, label). Aggregate
    partials (keyed by [Value.Null]) never match a vertex key and stay
    put. *)
val extract_for_key : t -> Value.t -> (int * int * entry) list

(** Drop every record of a terminated query. Its partial aggregates are
    reset and kept for later queries, so a partial must not be read once
    its query is cleared. *)
val clear_query : t -> int -> unit
