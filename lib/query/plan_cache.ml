(* Compiled-plan cache: run parse -> strategies -> planner -> verify once
   per query *family*, then bind parameters into the cached verified
   program on every later execution.

   A family is the query with its comparison values abstracted out: the
   normalizer walks the AST and replaces every predicate literal (the
   values of has(eq/neq/lt/...), the elements of within(), and the index
   lookup value) with a marker value recording its parameter index. The
   cache key is the printed marker AST plus the parameters' type
   signature; structural knobs — labels, repeat().times(), limit(),
   top-k's k, within() arity — stay part of the skeleton, because they
   change the compiled step graph.

   Soundness rests on the optimizer being value-oblivious: strategies and
   the join planner match on predicate *constructors* (an Eq is 10x
   selective whatever the literal), never on the literals themselves, so
   the marker program has exactly the shape the concrete program would.
   Binding parameters is then a pure structural map replacing marker
   constants inside the cached verified program — no re-lowering and, the
   point of the exercise, no re-verification. The result is byte-identical
   (structurally equal) to a cold compile of the concrete query, which
   the test suite asserts.

   Markers are strings carrying a NUL byte, which the lexer cannot
   produce — no user literal can collide with one. *)

type stats = {
  hits : int;
  misses : int;
  verifications : int; (* full verifier runs = cold compiles *)
}

type entry = {
  template : Program.t; (* verified program with marker constants *)
  arity : int;
}

type t = {
  graph : Graph.t;
  table : (Ast.t * string, entry) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
  mutable verifications : int;
}

let create ~graph = { graph; table = Hashtbl.create 16; hits = 0; misses = 0; verifications = 0 }
let stats t = { hits = t.hits; misses = t.misses; verifications = t.verifications }

(* --- Parameter holes --------------------------------------------------- *)

let marker i = Value.Str (Printf.sprintf "\x00param%d\x00" i)

let marker_index = function
  | Value.Str s
    when String.length s > 6
         && s.[0] = '\x00'
         && s.[String.length s - 1] = '\x00'
         && String.sub s 1 5 = "param" ->
    int_of_string_opt (String.sub s 6 (String.length s - 7))
  | _ -> None

type normalized = {
  skeleton : Ast.t; (* predicate literals replaced by markers *)
  params : Value.t array; (* in marker-index order *)
}

let normalize ast =
  let params = ref [] in
  let n = ref 0 in
  let hole v =
    let m = marker !n in
    incr n;
    params := v :: !params;
    m
  in
  let pred = function
    | Ast.Eq v -> Ast.Eq (hole v)
    | Ast.Ne v -> Ast.Ne (hole v)
    | Ast.Lt v -> Ast.Lt (hole v)
    | Ast.Le v -> Ast.Le (hole v)
    | Ast.Gt v -> Ast.Gt (hole v)
    | Ast.Ge v -> Ast.Ge (hole v)
    | Ast.Within vs -> Ast.Within (List.map hole vs)
  in
  let gstep = function
    | Ast.Has (key, p) -> Ast.Has (key, pred p)
    | ( Ast.Out _ | Ast.In _ | Ast.Both _ | Ast.Has_label _ | Ast.Where_neq _ | Ast.Dedup
      | Ast.As _ | Ast.Select _ | Ast.Values _ | Ast.Repeat _ | Ast.Count | Ast.Sum_of _
      | Ast.Max_of _ | Ast.Min_of _ | Ast.Group_count _ | Ast.Order_by _ | Ast.Limit _
      | Ast.Top_k _ ) as s ->
      s
  in
  let source = function
    | Ast.Scan_all _ as s -> s
    | Ast.Lookup { label; key; value } -> Ast.Lookup { label; key; value = hole value }
  in
  let traversal (tr : Ast.traversal) =
    { Ast.source = source tr.Ast.source; steps = List.map gstep tr.Ast.steps }
  in
  let skeleton =
    match ast with
    | Ast.Traversal tr -> Ast.Traversal (traversal tr)
    | Ast.Join_of { left; right; post } ->
      Ast.Join_of { left = traversal left; right = traversal right; post = List.map gstep post }
  in
  { skeleton; params = Array.of_list (List.rev !params) }

(* Cache key: the marker skeleton itself (compared and hashed
   structurally — printing the AST per lookup would cost more than the
   verification a hit saves) plus the parameters' runtime-type
   signature. Types cannot change the plan — the optimizer is
   value-oblivious — but families with differently-typed parameters are
   kept apart so the signature documents exactly what a cached plan was
   validated against. *)
let type_tag = function
  | Value.Null -> "0"
  | Value.Bool _ -> "b"
  | Value.Int _ -> "i"
  | Value.Float _ -> "f"
  | Value.Str _ -> "s"
  | Value.Vertex _ -> "v"
  | Value.Edge _ -> "e"
  | Value.List _ -> "l"

let key_of { skeleton; params } =
  let sig_ = String.concat "" (Array.to_list (Array.map type_tag params)) in
  (skeleton, sig_)

(* --- Parameter binding ------------------------------------------------- *)

let subst_value params v =
  match marker_index v with
  | Some i -> params.(i)
  | None -> v

let rec subst_expr params = function
  | Step.Const v -> Step.Const (subst_value params v)
  | (Step.Reg _ | Step.Vertex_id | Step.Vertex_label | Step.Prop _ | Step.Prop_of _) as e -> e
  | Step.Add (a, b) -> Step.Add (subst_expr params a, subst_expr params b)
  | Step.Pair (a, b) -> Step.Pair (subst_expr params a, subst_expr params b)

let rec subst_pred params = function
  | Step.True -> Step.True
  | Step.Cmp (c, a, b) -> Step.Cmp (c, subst_expr params a, subst_expr params b)
  | Step.And (p, q) -> Step.And (subst_pred params p, subst_pred params q)
  | Step.Or (p, q) -> Step.Or (subst_pred params p, subst_pred params q)
  | Step.Not p -> Step.Not (subst_pred params p)

let subst_agg params = function
  | Step.Count -> Step.Count
  | Step.Sum e -> Step.Sum (subst_expr params e)
  | Step.Max e -> Step.Max (subst_expr params e)
  | Step.Min e -> Step.Min (subst_expr params e)
  | Step.Topk { k; score; output } ->
    Step.Topk { k; score = subst_expr params score; output = subst_expr params output }
  | Step.Collect { expr; limit } -> Step.Collect { expr = subst_expr params expr; limit }
  | Step.Group_count e -> Step.Group_count (subst_expr params e)

let subst_op params = function
  | Step.Index_lookup { vertex_label; key; value } ->
    Step.Index_lookup { vertex_label; key; value = subst_value params value }
  | Step.Scan _ as op -> op
  | Step.Expand _ as op -> op
  | Step.Filter p -> Step.Filter (subst_pred params p)
  | Step.Set_reg { reg; expr } -> Step.Set_reg { reg; expr = subst_expr params expr }
  | Step.Move_to _ as op -> op
  | Step.Dedup { by } -> Step.Dedup { by = subst_expr params by }
  | Step.Visit _ as op -> op
  | Step.Join { join_id; side; key; store; load_regs; cont } ->
    Step.Join
      {
        join_id;
        side;
        key = subst_expr params key;
        store = Array.map (subst_expr params) store;
        load_regs;
        cont;
      }
  | Step.Aggregate { agg; reg } -> Step.Aggregate { agg = subst_agg params agg; reg }
  | Step.Emit exprs -> Step.Emit (Array.map (subst_expr params) exprs)

(* Bind concrete parameters into a cached template. [Program.make] re-runs
   the cheap structural validation (control flow, register ranges); the
   expensive dataflow verifier does NOT run — the template already passed
   it, and parameter binding cannot change anything it checks. *)
let bind ~name entry params =
  if Array.length params <> entry.arity then
    invalid_arg
      (Fmt.str "Plan_cache.bind: %d parameters for a template of arity %d" (Array.length params)
         entry.arity);
  let steps =
    Array.map
      (fun (s : Step.t) -> { s with Step.op = subst_op params s.Step.op })
      (Program.steps entry.template)
  in
  Program.make ~name ~steps
    ~n_registers:(Program.n_registers entry.template)
    ~entries:(Program.entries entry.template)

(* --- The cache --------------------------------------------------------- *)

let compile_ast t ?(name = "query") ast =
  let normalized = normalize ast in
  let key = key_of normalized in
  match Hashtbl.find_opt t.table key with
  | Some entry ->
    t.hits <- t.hits + 1;
    bind ~name entry normalized.params
  | None ->
    t.misses <- t.misses + 1;
    t.verifications <- t.verifications + 1;
    (* Cold path: compile (and verify) the marker skeleton once, cache
       it, then bind this call's parameters. *)
    let template = Compile.compile ~name t.graph normalized.skeleton in
    let entry = { template; arity = Array.length normalized.params } in
    Hashtbl.add t.table key entry;
    bind ~name entry normalized.params

let compile t ?name text =
  match Parser.parse text with
  | Error msg -> raise (Parser.Error msg)
  | Ok ast -> compile_ast t ?name ast

let size t = Hashtbl.length t.table
