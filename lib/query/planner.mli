(** Cost-based join planning (§III-A): choose between unidirectional
    expansion from either endpoint and a bidirectional double-pipelined
    join, minimizing estimated intermediate cardinality. *)

type plan =
  | Expand_left
  | Expand_right
  | Bidirectional

val plan_name : plan -> string

(** Per-edge-label statistics driving cardinality estimates. *)
type label_stats = Graph.label_stats = {
  count : int;
  distinct_sources : int;
  distinct_targets : int;
}

(** {!Graph.label_stats}: computed once per graph and kept with it. *)
val label_stats : Graph.t -> (int, label_stats) Hashtbl.t

(** Estimated branching factor of one step, when it moves. *)
val step_fanout : Graph.t -> Ast.gstep -> float option

(** Estimated keep-fraction of one step, when it filters. *)
val step_selectivity : Ast.gstep -> float option

(** [(total intermediate traversers, final cardinality)] of a traversal. *)
val traversal_cost : Graph.t -> Ast.traversal -> float * float

exception Not_reversible of string

(** Steps of the reversed path, starting from the join vertex and ending
    with the original source's constraints as filters. Raises
    {!Not_reversible} when the path has non-invertible steps. *)
val reverse_traversal : Ast.traversal -> Ast.gstep list

(** Pick the cheapest plan for a join pattern. *)
val choose : Graph.t -> left:Ast.traversal -> right:Ast.traversal -> plan

(** Rewrite the pattern under a plan (unidirectional plans flatten into a
    single traversal through the join vertex). *)
val apply_plan : plan -> Ast.traversal -> Ast.traversal -> Ast.gstep list -> Ast.t
