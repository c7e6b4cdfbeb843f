(** Traversal strategies: semantics-preserving rewrites applied before
    compilation (index lookups, label pushdown, top-k fusion, redundant
    dedup elimination). *)

val index_lookup : Ast.traversal -> Ast.traversal option
val fuse_order_limit : Ast.gstep list -> Ast.gstep list option
val drop_redundant_dedup : Ast.gstep list -> Ast.gstep list option
val collapse_dedup : Ast.gstep list -> Ast.gstep list option

(** Run every pass to a fixed point. *)
val apply : Ast.t -> Ast.t

val apply_traversal : Ast.traversal -> Ast.traversal
