(* The PSTM step ISA.

   A compiled traversal program is an array of steps; each traverser
   carries the index of the step it is about to execute (its psi in the
   paper's formalization) plus a register file holding its local variables
   (pi). The ISA is deliberately small: the Gremlin-level surface language
   (lib/query) compiles Has/Out/Values/Order/... down to these ops.

   Control flow is explicit: every step names its successor(s) by index, so
   loops (multi-hop traversals through [Visit]) and joins need no special
   interpreter machinery. *)

(* --- Expressions over a traverser's context --- *)

type expr =
  | Const of Value.t
  | Reg of int (* local variable *)
  | Vertex_id (* the traverser's current vertex, as Value.Vertex *)
  | Vertex_label (* label id of the current vertex, as Value.Int *)
  | Prop of int (* property of the current vertex *)
  | Prop_of of { reg : int; key : int } (* property of a vertex held in a register *)
  | Add of expr * expr
  | Pair of expr * expr (* 2-element list; composite keys *)

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

let rec eval_expr graph ~vertex ~regs = function
  | Const v -> v
  | Reg r -> regs.(r)
  | Vertex_id -> Value.Vertex vertex
  | Vertex_label -> Value.int (Graph.vertex_label graph vertex)
  | Prop key -> Graph.vertex_prop graph ~key vertex
  | Prop_of { reg; key } -> Graph.vertex_prop graph ~key (Value.vertex_exn regs.(reg))
  | Add (a, b) -> Value.add (eval_expr graph ~vertex ~regs a) (eval_expr graph ~vertex ~regs b)
  | Pair (a, b) ->
    Value.List [ eval_expr graph ~vertex ~regs a; eval_expr graph ~vertex ~regs b ]

(* Whether [cmp] holds of a [Value.compare] result. *)
let holds cmp c =
  match cmp with
  | Eq -> c = 0
  | Ne -> c <> 0
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0

let rec eval_pred graph ~vertex ~regs = function
  | True -> true
  | Cmp (cmp, Prop key, Const ((Value.Int _ | Value.Str _) as c)) ->
    (* The property is read unboxed; [eval_expr] would box the cell. *)
    holds cmp (Graph.compare_vertex_prop graph ~key vertex c)
  | Cmp (cmp, Vertex_id, Reg r) -> (
    (* [where(neq(...))] against a bound vertex: compared as ints, where
       [eval_expr] would box the current vertex. *)
    match regs.(r) with
    | Value.Vertex u -> holds cmp (Int.compare vertex u)
    | v -> holds cmp (Value.compare (Value.Vertex vertex) v))
  | Cmp (cmp, a, b) ->
    holds cmp (Value.compare (eval_expr graph ~vertex ~regs a) (eval_expr graph ~vertex ~regs b))
  | And (p, q) -> eval_pred graph ~vertex ~regs p && eval_pred graph ~vertex ~regs q
  | Or (p, q) -> eval_pred graph ~vertex ~regs p || eval_pred graph ~vertex ~regs q
  | Not p -> not (eval_pred graph ~vertex ~regs p)

(* Number of property-column reads an expression performs; the simulator
   charges CPU time per read. *)
let rec expr_prop_reads = function
  | Const _ | Reg _ | Vertex_id | Vertex_label -> 0
  | Prop _ | Prop_of _ -> 1
  | Add (a, b) | Pair (a, b) -> expr_prop_reads a + expr_prop_reads b

let rec pred_prop_reads = function
  | True -> 0
  | Cmp (_, a, b) -> expr_prop_reads a + expr_prop_reads b
  | And (p, q) | Or (p, q) -> pred_prop_reads p + pred_prop_reads q
  | Not p -> pred_prop_reads p

let rec max_reg_expr = function
  | Const _ | Vertex_id | Vertex_label | Prop _ -> -1
  | Reg r | Prop_of { reg = r; _ } -> r
  | Add (a, b) | Pair (a, b) -> max (max_reg_expr a) (max_reg_expr b)

let rec max_reg_pred = function
  | True -> -1
  | Cmp (_, a, b) -> max (max_reg_expr a) (max_reg_expr b)
  | And (p, q) | Or (p, q) -> max (max_reg_pred p) (max_reg_pred q)
  | Not p -> max_reg_pred p

(* Register reads, for Program.make's range check and the verifier's
   def-before-use analysis. *)
let rec iter_regs_expr f = function
  | Const _ | Vertex_id | Vertex_label | Prop _ -> ()
  | Reg r | Prop_of { reg = r; _ } -> f r
  | Add (a, b) | Pair (a, b) ->
    iter_regs_expr f a;
    iter_regs_expr f b

let rec iter_regs_pred f = function
  | True -> ()
  | Cmp (_, a, b) ->
    iter_regs_expr f a;
    iter_regs_expr f b
  | And (p, q) | Or (p, q) ->
    iter_regs_pred f p;
    iter_regs_pred f q
  | Not p -> iter_regs_pred f p

(* --- Aggregations (§III-C) --- *)

type agg =
  | Count
  | Sum of expr
  | Max of expr
  | Min of expr
  | Topk of { k : int; score : expr; output : expr } (* ties: smaller output wins *)
  | Collect of { expr : expr; limit : int option }
  | Group_count of expr

let agg_prop_reads = function
  | Count -> 0
  | Sum e | Max e | Min e | Collect { expr = e; _ } | Group_count e -> expr_prop_reads e
  | Topk { score; output; _ } -> expr_prop_reads score + expr_prop_reads output

let iter_regs_agg f = function
  | Count -> ()
  | Sum e | Max e | Min e | Collect { expr = e; _ } | Group_count e -> iter_regs_expr f e
  | Topk { score; output; _ } ->
    iter_regs_expr f score;
    iter_regs_expr f output

(* --- Steps --- *)

type side =
  | Side_a
  | Side_b

type op =
  (* Sources: spawn the initial traversers of a query. *)
  | Index_lookup of { vertex_label : int option; key : int; value : Value.t }
  | Scan of { vertex_label : int option }
  (* Movement: spawn one child per matching adjacent vertex. *)
  | Expand of { dir : Graph.direction; edge_label : int option }
  (* Per-traverser transforms. *)
  | Filter of pred
  | Set_reg of { reg : int; expr : expr }
  (* Stateful partitioned operators, backed by the partition memo. *)
  | Move_to of { reg : int }
    (* jump to the vertex held in a register (Gremlin's select of a bound
       vertex); the successor executes at that vertex's owner *)
  | Dedup of { by : expr }
  | Visit of { dist_reg : int; max_hops : int; cont : int; emit_improved : bool }
    (* memo-assisted multi-hop visit (Fig. 5): on first visit, emit a
       continuation traverser to [cont]; if the traversed distance improves
       the recorded one and is below [max_hops], loop to [next] (Expand). *)
  | Join of { join_id : int; side : side; key : expr; store : expr array; load_regs : int array; cont : int }
    (* double-pipelined join: insert [store] under [key] on this side's
       table, probe the other side's table, and for each match continue at
       [cont] with the matched payload written into [load_regs]. *)
  (* Phase boundary: fold traversers into a partitioned partial aggregate;
     when the phase terminates, the combined value lands in [reg] of a
     fresh continuation traverser starting at [next]. *)
  | Aggregate of { agg : agg; reg : int }
  (* Terminal: deliver a result row to the query coordinator. *)
  | Emit of expr array

type t = {
  op : op;
  next : int; (* successor step index; -1 when the op is terminal *)
}

let is_source = function Index_lookup _ | Scan _ -> true | _ -> false

(* Where a traverser must execute this op: at the owner of its current
   vertex (data locality) or at the owner of a computed key (the
   partitionable-property routing h_psi of §III-A). *)
type routing =
  | By_vertex
  | By_key of expr
  | By_coordinator (* results and aggregation continuations *)

let routing = function
  | Dedup { by } -> By_key by
  | Join { key; _ } -> By_key key
  | Emit _ -> By_coordinator
  | Index_lookup _ | Scan _ | Expand _ | Filter _ | Set_reg _ | Move_to _ | Visit _
  | Aggregate _ ->
    By_vertex

let fusable = function
  | Expand _ | Filter _ -> true
  | Index_lookup _ | Scan _ | Set_reg _ | Move_to _ | Dedup _ | Visit _ | Join _ | Aggregate _
  | Emit _ ->
    false

let op_name = function
  | Index_lookup _ -> "index_lookup"
  | Scan _ -> "scan"
  | Expand _ -> "expand"
  | Filter _ -> "filter"
  | Set_reg _ -> "set_reg"
  | Move_to _ -> "move_to"
  | Dedup _ -> "dedup"
  | Visit _ -> "visit"
  | Join _ -> "join"
  | Aggregate _ -> "aggregate"
  | Emit _ -> "emit"

(* Human-readable operator label for EXPLAIN-style output: op name plus
   the parameters that matter when reading a plan. *)
let op_summary op =
  let opt_label = function None -> "*" | Some l -> string_of_int l in
  match op with
  | Index_lookup { vertex_label; key; value } ->
    Printf.sprintf "index_lookup(label=%s, prop%d=%s)" (opt_label vertex_label) key
      (Fmt.str "%a" Value.pp value)
  | Scan { vertex_label } -> Printf.sprintf "scan(label=%s)" (opt_label vertex_label)
  | Expand { dir; edge_label } ->
    let dir_name = match dir with Graph.Out -> "out" | Graph.In -> "in" | Graph.Both -> "both" in
    Printf.sprintf "expand(%s, edge=%s)" dir_name (opt_label edge_label)
  | Filter _ -> "filter"
  | Set_reg { reg; _ } -> Printf.sprintf "set_reg(r%d)" reg
  | Move_to { reg } -> Printf.sprintf "move_to(r%d)" reg
  | Dedup _ -> "dedup"
  | Visit { dist_reg; max_hops; cont; emit_improved } ->
    Printf.sprintf "visit(r%d, max_hops=%d, cont=%d%s)" dist_reg max_hops cont
      (if emit_improved then ", emit_improved" else "")
  | Join { join_id; side; cont; _ } ->
    Printf.sprintf "join(#%d, %s, cont=%d)" join_id
      (match side with Side_a -> "a" | Side_b -> "b")
      cont
  | Aggregate { agg; reg } ->
    let agg_name =
      match agg with
      | Count -> "count"
      | Sum _ -> "sum"
      | Max _ -> "max"
      | Min _ -> "min"
      | Topk { k; _ } -> Printf.sprintf "top%d" k
      | Collect _ -> "collect"
      | Group_count _ -> "group_count"
    in
    Printf.sprintf "aggregate(%s -> r%d)" agg_name reg
  | Emit exprs -> Printf.sprintf "emit(%d cols)" (Array.length exprs)

let pp ppf t = Fmt.pf ppf "%s -> %d" (op_name t.op) t.next
