(* Lowering: Gremlin-like AST -> PSTM step program.

   The pipeline is strategies (rewrites) -> planner (join placement) ->
   this lowering. Steps are appended sequentially, so each step's [next]
   defaults to its successor index; loop back-edges (Repeat) and join
   continuations are patched afterwards.

   The compiler tracks a *focus*: what a traverser "is" at this point of
   the traversal — the current vertex, or a projected value after
   [Values]/aggregation. Movement steps require vertex focus. *)

exception Error of string

let error fmt = Fmt.kstr (fun s -> raise (Error s)) fmt

type focus =
  | F_vertex
  | F_value of Step.expr

type ctx = {
  schema : Schema.t;
  steps : Step.t Vec.t;
  regs : (string, int) Hashtbl.t; (* as_ bindings *)
  mutable n_regs : int;
  mutable next_join_id : int;
  mutable focus : focus;
}

let create_ctx schema =
  {
    schema;
    steps = Vec.create ~dummy:{ Step.op = Step.Emit [||]; next = -1 };
    regs = Hashtbl.create 8;
    n_regs = 0;
    next_join_id = 0;
    focus = F_vertex;
  }

let fresh_reg ctx =
  let r = ctx.n_regs in
  ctx.n_regs <- ctx.n_regs + 1;
  r

let binding ctx name =
  match Hashtbl.find_opt ctx.regs name with
  | Some r -> r
  | None ->
    let r = fresh_reg ctx in
    Hashtbl.add ctx.regs name r;
    r

let bound ctx name =
  match Hashtbl.find_opt ctx.regs name with
  | Some r -> r
  | None -> error "select/where refers to unbound name %S" name

(* A name absent from this graph resolves to -1, an id no vertex, edge
   or property column carries, so the query compiles to a program that
   simply matches nothing, as Gremlin does. Compiling never adds a name
   to the graph's schema. *)
let resolve = Option.value ~default:(-1)
let prop_key ctx name = resolve (Schema.property_key_opt ctx.schema name)
let edge_label ctx name = resolve (Schema.edge_label_opt ctx.schema name)
let vertex_label ctx name = resolve (Schema.vertex_label_opt ctx.schema name)

(* Append a step whose [next] is the following index (patched later when
   that is wrong). Returns the step's index. *)
let append ctx op =
  let i = Vec.length ctx.steps in
  Vec.push ctx.steps { Step.op; next = i + 1 };
  i

let patch_next ctx i next =
  let s = Vec.get ctx.steps i in
  Vec.set ctx.steps i { s with Step.next }

let patch_op ctx i op =
  let s = Vec.get ctx.steps i in
  Vec.set ctx.steps i { s with Step.op }

let focus_expr ctx =
  match ctx.focus with
  | F_vertex -> Step.Vertex_id
  | F_value e -> e

let require_vertex ctx what =
  match ctx.focus with
  | F_vertex -> ()
  | F_value _ -> error "%s requires a vertex context (after values()/aggregation use select())" what

let compile_pred ctx key (p : Ast.pred) =
  let prop = Step.Prop (prop_key ctx key) in
  let cmp op v = Step.Cmp (op, prop, Step.Const v) in
  match p with
  | Ast.Eq v -> cmp Step.Eq v
  | Ast.Ne v -> cmp Step.Ne v
  | Ast.Lt v -> cmp Step.Lt v
  | Ast.Le v -> cmp Step.Le v
  | Ast.Gt v -> cmp Step.Gt v
  | Ast.Ge v -> cmp Step.Ge v
  | Ast.Within [] -> Step.Not Step.True
  | Ast.Within (v :: vs) ->
    List.fold_left (fun acc v -> Step.Or (acc, cmp Step.Eq v)) (cmp Step.Eq v) vs

let compile_source ctx (s : Ast.source) =
  match s with
  | Ast.Scan_all label ->
    append ctx (Step.Scan { vertex_label = Option.map (vertex_label ctx) label })
  | Ast.Lookup { label; key; value } ->
    append ctx
      (Step.Index_lookup
         { vertex_label = Option.map (vertex_label ctx) label; key = prop_key ctx key; value })

let compile_agg ctx agg =
  let r = fresh_reg ctx in
  ignore (append ctx (Step.Aggregate { agg; reg = r }));
  ctx.focus <- F_value (Step.Reg r)

let compile_gstep ctx (s : Ast.gstep) =
  match s with
  | Ast.Out label ->
    require_vertex ctx "out()";
    ignore
      (append ctx (Step.Expand { dir = Graph.Out; edge_label = Option.map (edge_label ctx) label }))
  | Ast.In label ->
    require_vertex ctx "in()";
    ignore
      (append ctx (Step.Expand { dir = Graph.In; edge_label = Option.map (edge_label ctx) label }))
  | Ast.Both label ->
    require_vertex ctx "both()";
    ignore
      (append ctx
         (Step.Expand { dir = Graph.Both; edge_label = Option.map (edge_label ctx) label }))
  | Ast.Has_label l ->
    require_vertex ctx "hasLabel()";
    ignore
      (append ctx
         (Step.Filter
            (Step.Cmp (Step.Eq, Step.Vertex_label, Step.Const (Value.Int (vertex_label ctx l))))))
  | Ast.Has (key, pred) ->
    require_vertex ctx "has()";
    ignore (append ctx (Step.Filter (compile_pred ctx key pred)))
  | Ast.Where_neq name ->
    require_vertex ctx "where(neq())";
    ignore
      (append ctx (Step.Filter (Step.Cmp (Step.Ne, Step.Vertex_id, Step.Reg (bound ctx name)))))
  | Ast.Dedup -> ignore (append ctx (Step.Dedup { by = focus_expr ctx }))
  | Ast.As name ->
    require_vertex ctx "as()";
    ignore (append ctx (Step.Set_reg { reg = binding ctx name; expr = Step.Vertex_id }))
  | Ast.Select name ->
    ignore (append ctx (Step.Move_to { reg = bound ctx name }));
    ctx.focus <- F_vertex
  | Ast.Values key ->
    require_vertex ctx "values()";
    ctx.focus <- F_value (Step.Prop (prop_key ctx key))
  | Ast.Repeat { dir; label; times } ->
    require_vertex ctx "repeat()";
    if times < 1 then error "repeat().times(%d): need at least one hop" times;
    let dist = fresh_reg ctx in
    ignore (append ctx (Step.Set_reg { reg = dist; expr = Step.Const (Value.Int 0) }));
    let visit =
      append ctx (Step.Visit { dist_reg = dist; max_hops = times; cont = -1 (* patched *); emit_improved = false })
    in
    let expand =
      append ctx (Step.Expand { dir; edge_label = Option.map (edge_label ctx) label })
    in
    patch_next ctx expand visit;
    (* The continuation pipeline starts right after the expand. *)
    patch_op ctx visit
      (Step.Visit { dist_reg = dist; max_hops = times; cont = expand + 1; emit_improved = false })
  | Ast.Count -> compile_agg ctx Step.Count
  | Ast.Sum_of key -> compile_agg ctx (Step.Sum (Step.Prop (prop_key ctx key)))
  | Ast.Max_of key -> compile_agg ctx (Step.Max (Step.Prop (prop_key ctx key)))
  | Ast.Min_of key -> compile_agg ctx (Step.Min (Step.Prop (prop_key ctx key)))
  | Ast.Group_count key -> compile_agg ctx (Step.Group_count (Step.Prop (prop_key ctx key)))
  | Ast.Top_k { key; k } ->
    require_vertex ctx "order().by().limit()";
    compile_agg ctx (Step.Topk { k; score = Step.Prop (prop_key ctx key); output = Step.Vertex_id })
  | Ast.Limit k -> compile_agg ctx (Step.Collect { expr = focus_expr ctx; limit = Some k })
  | Ast.Order_by _ -> error "order().by() must be followed by limit() (fused to top-k)"

let finish ctx ~name ~entries =
  ignore (append ctx (Step.Emit [| focus_expr ctx |]));
  let last = Vec.length ctx.steps - 1 in
  patch_next ctx last (-1);
  (* Every compiled program passes the static verifier before it reaches
     an engine; a planner bug surfaces here as Program.Invalid rather
     than as a hung or wrong-answer simulation. *)
  Pstm_analysis.Verify.program_exn
    (Program.make ~name ~steps:(Vec.to_array ctx.steps) ~n_registers:(max 1 ctx.n_regs) ~entries)

(* Registers bound while running [f]; used to decide join payloads. *)
let regs_bound_during ctx f =
  (* det-ok: the difference is sorted below, so fold order cannot leak *)
  let before = Hashtbl.fold (fun _ r acc -> r :: acc) ctx.regs [] in
  f ();
  (* det-ok: the difference is sorted below, so fold order cannot leak *)
  let after = Hashtbl.fold (fun _ r acc -> r :: acc) ctx.regs [] in
  List.sort Int.compare (List.filter (fun r -> not (List.mem r before)) after)

let lower_traversal ctx (t : Ast.traversal) =
  let entry = compile_source ctx t.Ast.source in
  List.iter (compile_gstep ctx) t.Ast.steps;
  entry

let lower_join ctx left right post =
  let join_id = ctx.next_join_id in
  ctx.next_join_id <- join_id + 1;
  let compile_side side (t : Ast.traversal) =
    let entry = ref (-1) in
    let bound =
      regs_bound_during ctx (fun () ->
          entry := lower_traversal ctx t;
          require_vertex ctx "join()")
    in
    let join_step =
      append ctx
        (Step.Join
           {
             join_id;
             side;
             key = Step.Vertex_id;
             store = Array.of_list (List.map (fun r -> Step.Reg r) bound);
             load_regs = [||] (* patched once the other side's regs are known *);
             cont = -1 (* patched to the post pipeline *);
           })
    in
    (!entry, join_step, Array.of_list bound)
  in
  let entry_a, join_a, regs_a = compile_side Step.Side_a left in
  ctx.focus <- F_vertex;
  let entry_b, join_b, regs_b = compile_side Step.Side_b right in
  let cont = Vec.length ctx.steps in
  let repatch idx ~side ~store_regs ~load_regs =
    patch_op ctx idx
      (Step.Join
         {
           join_id;
           side;
           key = Step.Vertex_id;
           store = Array.map (fun r -> Step.Reg r) store_regs;
           load_regs;
           cont;
         })
  in
  repatch join_a ~side:Step.Side_a ~store_regs:regs_a ~load_regs:regs_b;
  repatch join_b ~side:Step.Side_b ~store_regs:regs_b ~load_regs:regs_a;
  ctx.focus <- F_vertex;
  List.iter (compile_gstep ctx) post;
  [| entry_a; entry_b |]

(* Lowering of a planned AST, shared by both entry points below. *)
let lower ~name graph ast =
  let ctx = create_ctx (Graph.schema graph) in
  let entries =
    match ast with
    | Ast.Traversal t -> [| lower_traversal ctx t |]
    | Ast.Join_of { left; right; post } -> lower_join ctx left right post
  in
  finish ctx ~name ~entries

(* Full pipeline: strategies -> planner -> lowering. *)
let compile ?(name = "query") graph ast =
  let ast = Strategies.apply ast in
  let ast =
    match ast with
    | Ast.Traversal _ -> ast
    | Ast.Join_of { left; right; post } ->
      let plan = Planner.choose graph ~left ~right in
      Strategies.apply (Planner.apply_plan plan left right post)
  in
  lower ~name graph ast

(* Compile forcing a specific join plan; the Fig. 3 style experiments use
   this to contrast bidirectional join with unidirectional expansion. *)
let compile_with_plan ?(name = "query") graph ~plan ~left ~right ~post =
  lower ~name graph (Strategies.apply (Planner.apply_plan plan left right post))

(* A prepared query: [query] built once with a marker per parameter,
   compiled and verified by [compile] like any other query, then kept
   as a template. Neither the strategies, the planner, lowering,
   [Program.make] nor the verifier read a literal's value, so the
   template's plan is the plan of every binding. *)
let prepare ?name graph ~params query =
  let template =
    Program.template ~params (compile ?name graph (query (Array.init params Program.param)))
  in
  Program.bind template
