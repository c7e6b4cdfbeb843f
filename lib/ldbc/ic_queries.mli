(** The 14 LDBC SNB Interactive Complex queries, adapted to the PSTM
    operator set (multi-hop expansion, filters, dedup, join, aggregation,
    top-k). Each constructor draws its parameters deterministically from
    the generator's id spaces using the supplied PRNG.

    The constructors are staged: [ic1 d] compiles and verifies IC1's
    shape once on [d], and [ic1 d prng] then only draws and binds the
    parameters. Apply a query to the dataset once, outside any loop. *)

val ic1 : Snb_gen.t -> Prng.t -> Program.t
val ic2 : Snb_gen.t -> Prng.t -> Program.t
val ic3 : Snb_gen.t -> Prng.t -> Program.t
val ic4 : Snb_gen.t -> Prng.t -> Program.t
val ic5 : Snb_gen.t -> Prng.t -> Program.t

(** The two partial paths and continuation of the IC6 / Figure 3 join
    pattern, for plan-comparison experiments. *)
val ic6_sides : Snb_gen.t -> Prng.t -> Ast.traversal * Ast.traversal * Ast.gstep list

val ic6 : Snb_gen.t -> Prng.t -> Program.t
val ic7 : Snb_gen.t -> Prng.t -> Program.t
val ic8 : Snb_gen.t -> Prng.t -> Program.t
val ic9 : Snb_gen.t -> Prng.t -> Program.t
val ic10 : Snb_gen.t -> Prng.t -> Program.t
val ic11 : Snb_gen.t -> Prng.t -> Program.t
val ic12 : Snb_gen.t -> Prng.t -> Program.t

(** Shortest path (hand-built on the step ISA: the Visit distance
    register is the answer). *)
val ic13 : Snb_gen.t -> Prng.t -> Program.t

val ic14 : Snb_gen.t -> Prng.t -> Program.t

(** The queries as {!Read_query.t}s, in benchmark order: {!all} is
    each one prepared. *)
val queries : Read_query.t list

(** All queries with their benchmark names, in order. *)
val all : (string * (Snb_gen.t -> Prng.t -> Program.t)) list
