(** The 7 LDBC SNB Interactive Short queries: point lookups and one-hop
    reads — the low-latency half of the mixed workload. Staged like
    {!Ic_queries}: [is1 d] compiles once, [is1 d prng] binds. *)

val is1 : Snb_gen.t -> Prng.t -> Program.t
val is2 : Snb_gen.t -> Prng.t -> Program.t
val is3 : Snb_gen.t -> Prng.t -> Program.t
val is4 : Snb_gen.t -> Prng.t -> Program.t
val is5 : Snb_gen.t -> Prng.t -> Program.t
val is6 : Snb_gen.t -> Prng.t -> Program.t
val is7 : Snb_gen.t -> Prng.t -> Program.t

(** The queries as {!Read_query.t}s, in benchmark order: {!all} is
    each one prepared. *)
val queries : Read_query.t list

val all : (string * (Snb_gen.t -> Prng.t -> Program.t)) list
