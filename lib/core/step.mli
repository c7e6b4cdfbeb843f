(** The PSTM step ISA: the compiled form of a traversal program.

    Control flow is explicit (each step names its successors by index), so
    multi-hop loops and double-pipelined joins execute on a flat array
    interpreter in every engine. *)

type expr =
  | Const of Value.t
  | Reg of int
  | Vertex_id
  | Vertex_label
  | Prop of int
  | Prop_of of { reg : int; key : int }
  | Add of expr * expr
  | Pair of expr * expr

type cmp =
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge

type pred =
  | True
  | Cmp of cmp * expr * expr
  | And of pred * pred
  | Or of pred * pred
  | Not of pred

val eval_expr : Graph.t -> vertex:int -> regs:Value.t array -> expr -> Value.t
val eval_pred : Graph.t -> vertex:int -> regs:Value.t array -> pred -> bool

(** Property-column reads performed by an expression (charged CPU time). *)
val expr_prop_reads : expr -> int

val pred_prop_reads : pred -> int

(** Highest register index a predicate reads, or -1. *)
val max_reg_pred : pred -> int

(** Apply [f] to every register an expression/predicate reads (with
    repetitions); drives {!Program.make}'s range check and the verifier's
    def-before-use analysis. *)
val iter_regs_expr : (int -> unit) -> expr -> unit

val iter_regs_pred : (int -> unit) -> pred -> unit

type agg =
  | Count
  | Sum of expr
  | Max of expr
  | Min of expr
  | Topk of { k : int; score : expr; output : expr }
      (** best [k] by descending score; ties broken by ascending output *)
  | Collect of { expr : expr; limit : int option }
  | Group_count of expr

val agg_prop_reads : agg -> int
val iter_regs_agg : (int -> unit) -> agg -> unit

type side =
  | Side_a
  | Side_b

type op =
  | Index_lookup of { vertex_label : int option; key : int; value : Value.t }
  | Scan of { vertex_label : int option }
  | Expand of { dir : Graph.direction; edge_label : int option }
  | Filter of pred
  | Set_reg of { reg : int; expr : expr }
  | Move_to of { reg : int }
  | Dedup of { by : expr }
  | Visit of { dist_reg : int; max_hops : int; cont : int; emit_improved : bool }
  | Join of {
      join_id : int;
      side : side;
      key : expr;
      store : expr array;
      load_regs : int array;
      cont : int;
    }
  | Aggregate of { agg : agg; reg : int }
  | Emit of expr array

type t = {
  op : op;
  next : int; (** successor step index; -1 when terminal *)
}

val is_source : op -> bool

(** Partition-routing discipline of an op (the h_psi of §III-A). *)
type routing =
  | By_vertex
  | By_key of expr
  | By_coordinator

val routing : op -> routing

(** Can the op run fused in a batch chain? Expand and Filter neither
    touch the partition memo, produce rows nor write a register: their
    only effects are spawning children that carry their parent's
    registers and finishing weight. Set_reg runs on the scalar
    interpreter like every other op. *)
val fusable : op -> bool

val op_name : op -> string

(** [op_name] plus the plan-relevant parameters, for EXPLAIN-style
    operator tables. *)
val op_summary : op -> string
val pp : Format.formatter -> t -> unit
