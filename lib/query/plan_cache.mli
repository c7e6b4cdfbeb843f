(** Compiled-plan cache: parse -> strategies -> planner -> verify runs
    once per query family; later executions bind parameters into the
    cached verified program.

    A family is the query with its predicate literals (has()/within()
    values, index-lookup values) abstracted into parameter holes; the
    cache key is the normalized AST plus the parameters' type signature.
    Structural knobs (labels, times, limit, k, within arity) stay in the
    skeleton. Binding is a structural map over the cached program, so a
    hit skips re-lowering and re-verification and returns a program
    structurally equal to a cold compile — observable via {!stats}.

    The cache is per-graph (plans depend on the schema and the planner's
    degree statistics). It is not an engine-side structure, so its stats
    are mirrored into [Metrics] by the harness, not here. *)

type t

val create : graph:Graph.t -> t

type stats = {
  hits : int;
  misses : int;
  verifications : int; (** full verifier runs, i.e. cold compiles *)
}

val stats : t -> stats

(** Cached families currently resident. *)
val size : t -> int

(** Compile query text through the cache. Raises {!Parser.Error} on
    syntax errors and {!Compile.Error} on malformed traversals. *)
val compile : t -> ?name:string -> string -> Program.t

(** Same, from an already-parsed AST. *)
val compile_ast : t -> ?name:string -> Ast.t -> Program.t
