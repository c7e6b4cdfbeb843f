(* Fluent query-building combinators.

   A thin layer over the AST so applications read like Gremlin:

     Dsl.(
       v ()
       |> has "id" (eq (int 42))
       |> repeat_out "knows" ~times:2
       |> has "id" (ne (int 42))
       |> top_k "weight" 10
       |> build "k-hop-influencers")

   [build] returns the AST; pair it with {!Compile.compile} to obtain a
   runnable program. *)

type t = {
  source : Ast.source;
  rev_steps : Ast.gstep list;
}

(* --- Values and predicates --- *)

let int n = Value.Int n
let str s = Value.Str s
let float f = Value.Float f
let bool b = Value.Bool b
let eq v = Ast.Eq v
let ne v = Ast.Ne v
let lt v = Ast.Lt v
let lte v = Ast.Le v
let gt v = Ast.Gt v
let gte v = Ast.Ge v
let within vs = Ast.Within vs

(* --- Sources --- *)

let v ?label () = { source = Ast.Scan_all label; rev_steps = [] }

let v_lookup ?label ~key value = { source = Ast.Lookup { label; key; value }; rev_steps = [] }

(* --- Steps --- *)

let step s t = { t with rev_steps = s :: t.rev_steps }
let out ?label () = step (Ast.Out label)
let out_ label t = step (Ast.Out (Some label)) t
let in_ label t = step (Ast.In (Some label)) t
let has_label l = step (Ast.Has_label l)
let has key pred = step (Ast.Has (key, pred))
let where_neq name = step (Ast.Where_neq name)
let dedup t = step Ast.Dedup t
let as_ name = step (Ast.As name)
let select name = step (Ast.Select name)
let values key = step (Ast.Values key)

let repeat ?(dir = Graph.Out) ?label ~times () = step (Ast.Repeat { dir; label; times })
let repeat_out label ~times t = step (Ast.Repeat { dir = Graph.Out; label = Some label; times }) t

let count t = step Ast.Count t
let sum key = step (Ast.Sum_of key)
let group_count key = step (Ast.Group_count key)
let top_k key k = step (Ast.Top_k { key; k })
let limit k = step (Ast.Limit k)

(* --- Finishers --- *)

let traversal t = { Ast.source = t.source; steps = List.rev t.rev_steps }
let build t = Ast.Traversal (traversal t)

(* Join two traversals at their final vertex; [post] continues from it. *)
let join ?(post = fun p -> p) left right =
  let post_t = post { source = Ast.Scan_all None; rev_steps = [] } in
  Ast.Join_of
    { left = traversal left; right = traversal right; post = List.rev post_t.rev_steps }
