(** Compiler: Gremlin-like AST -> validated PSTM program.

    Pipeline: {!Strategies.apply} rewrites, {!Planner.choose} places joins,
    then lowering with explicit control-flow patching. *)

exception Error of string

(** Compile a query against a graph's schema. Unknown labels compile to
    programs that match nothing (as in Gremlin). Raises {!Error} on
    malformed traversals (movement after [values()], unbound [select],
    unfused [order().by()], ...). *)
val compile : ?name:string -> Graph.t -> Ast.t -> Program.t

(** [prepare graph ~params query] compiles [query] once, with the
    marker {!Program.param}[ i] as parameter [i], and returns the
    binder: [prepare graph ~params query values] equals
    [compile graph (query values)] for every [values] of length
    [params], but costs one {!Program.bind}. [query] must place each
    parameter only as a literal and must not branch on its value, so
    that the shape of the AST is the same for every binding. *)
val prepare :
  ?name:string -> Graph.t -> params:int -> (Value.t array -> Ast.t) -> Value.t array -> Program.t

(** Compile a join pattern under a forced plan (for plan-comparison
    experiments). *)
val compile_with_plan :
  ?name:string ->
  Graph.t ->
  plan:Planner.plan ->
  left:Ast.traversal ->
  right:Ast.traversal ->
  post:Ast.gstep list ->
  Program.t
