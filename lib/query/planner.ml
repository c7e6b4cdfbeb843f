(* Cost-based join planning (§III-A).

   A path pattern can be evaluated by expanding from the left endpoint
   only, from the right endpoint only, or bidirectionally with a
   double-pipelined join at the meeting vertex. The planner estimates the
   number of partial-path instances each plan materializes from degree
   statistics and picks the cheapest — the paper's "join key that
   minimizes the estimated number of all matched partial paths". *)

type plan =
  | Expand_left (* run left's path, then the reverse of right's *)
  | Expand_right
  | Bidirectional (* the double-pipelined join *)

let plan_name = function
  | Expand_left -> "expand-left"
  | Expand_right -> "expand-right"
  | Bidirectional -> "bidirectional-join"

(* Per-edge-label degree statistics: edge count and the number of distinct
   sources/targets carrying the label. The conditional fanout of out('l')
   is count/distinct_sources — the mean out-degree among vertices that
   actually have such edges — which is the estimate that matters on a
   schema-typed graph, where the unconditional average over all vertices
   grossly underestimates (e.g. posts per tag). *)

type label_stats = Graph.label_stats = {
  count : int;
  distinct_sources : int;
  distinct_targets : int;
}

(* Kept with the graph: two graphs of equal size have their own. *)
let label_stats = Graph.label_stats

(* Expected branching factor of one movement step. *)
let step_fanout graph (s : Ast.gstep) =
  let schema = Graph.schema graph in
  let stats = label_stats graph in
  (* A label no edge carries expands to nothing, whether or not an
     earlier compile interned its name: the estimate must not depend on
     what was compiled before. *)
  let deg dir label =
    match label with
    | None -> Graph.avg_degree graph ~dir:Graph.Out ()
    | Some name -> begin
      match Option.bind (Schema.edge_label_opt schema name) (Hashtbl.find_opt stats) with
      | None -> 0.0
      | Some s -> begin
        match dir with
        | `Out -> float_of_int s.count /. float_of_int s.distinct_sources
        | `In -> float_of_int s.count /. float_of_int s.distinct_targets
      end
    end
  in
  match s with
  | Ast.Out l -> Some (deg `Out l)
  | Ast.In l -> Some (deg `In l)
  | Ast.Both l -> Some (deg `Out l +. deg `In l)
  | Ast.Repeat { label; times; _ } ->
    (* Geometric growth capped by the vertex count. *)
    let d = deg `Out label in
    Some (Float.min (d ** float_of_int times) (float_of_int (Graph.n_vertices graph)))
  | _ -> None

(* A filter keeps roughly this fraction of traversers. *)
let step_selectivity = function
  | Ast.Has (_, Ast.Eq _) -> Some 0.1
  | Ast.Has _ -> Some 0.5
  | Ast.Has_label _ -> Some 0.3
  | Ast.Where_neq _ -> Some 0.95
  | _ -> None

let source_cardinality graph = function
  | Ast.Lookup _ -> 1.0
  | Ast.Scan_all None -> float_of_int (Graph.n_vertices graph)
  | Ast.Scan_all (Some label) -> begin
    match Schema.vertex_label_opt (Graph.schema graph) label with
    | None -> 0.0
    | Some l ->
      let count = ref 0 in
      Graph.iter_vertices_with_label graph l (fun _ -> incr count);
      float_of_int !count
  end

(* Total intermediate traversers materialized by a traversal: the sum of
   the running cardinality after every step. *)
let traversal_cost graph (t : Ast.traversal) =
  let running = ref (source_cardinality graph t.Ast.source) in
  let total = ref !running in
  List.iter
    (fun s ->
      (match step_fanout graph s with
      | Some f -> running := !running *. f
      | None -> ());
      (match step_selectivity s with
      | Some sel -> running := !running *. sel
      | None -> ());
      total := !total +. !running)
    t.Ast.steps;
  (!total, !running)

(* Reverse a pure path traversal so it can be appended to the other side:
   movement steps flip direction and order; each vertex's filters stay
   attached to it; the source constraint becomes a trailing filter. *)
exception Not_reversible of string

let reverse_movement = function
  | Ast.Out l -> Ast.In l
  | Ast.In l -> Ast.Out l
  | Ast.Both l -> Ast.Both l
  | s -> raise (Not_reversible (Fmt.str "%a is not a movement step" Ast.pp_gstep s))

let is_movement = function Ast.Out _ | Ast.In _ | Ast.Both _ -> true | _ -> false

let is_vertex_filter = function
  | Ast.Has _ | Ast.Has_label _ | Ast.Where_neq _ -> true
  | _ -> false

let reverse_traversal (t : Ast.traversal) =
  (* Split into alternating [filters; movement] groups walking forward,
     then emit them walking backward. *)
  let source_filters =
    match t.Ast.source with
    | Ast.Scan_all None -> []
    | Ast.Scan_all (Some l) -> [ Ast.Has_label l ]
    | Ast.Lookup { label; key; value } ->
      (match label with Some l -> [ Ast.Has_label l ] | None -> [])
      @ [ Ast.Has (key, Ast.Eq value) ]
  in
  let rec group acc current = function
    | [] -> List.rev ((None, List.rev current) :: acc)
    | s :: rest when is_movement s -> group ((Some s, List.rev current) :: acc) [] rest
    | s :: rest when is_vertex_filter s -> group acc (s :: current) rest
    | s :: _ -> raise (Not_reversible (Fmt.str "%a cannot appear on a join path" Ast.pp_gstep s))
  in
  (* groups: [(move_into_group_or_None_for_source, filters_at_that_vertex)] *)
  match group [] [] t.Ast.steps with
  | [] -> assert false
  | (first_move, first_filters) :: rest ->
    let groups = (first_move, first_filters) :: rest in
    (* Walking backward: for each group from last to first, emit its
       filters, then the reversed movement that *entered* it. *)
    let rec emit acc = function
      | [] -> acc
      | (move, filters) :: earlier ->
        let acc = acc @ filters in
        let acc =
          match move with
          | Some m -> acc @ [ reverse_movement m ]
          | None -> acc
        in
        emit acc earlier
    in
    let reversed_groups = List.rev groups in
    let steps = emit [] reversed_groups @ source_filters in
    (* The reversed traversal starts at the join vertex; its source is
       supplied by the side it is appended to, so only steps are returned. *)
    steps

(* Decide how to execute a join pattern. *)
let choose graph ~left ~right =
  let cost_left, card_left = traversal_cost graph left in
  let cost_right, card_right = traversal_cost graph right in
  (* Cost of continuing [card] traversers through a (reversed) step
     list: the same running-cardinality accumulation as traversal_cost. *)
  let continuation_cost steps ~card =
    let running = ref card in
    let total = ref 0.0 in
    List.iter
      (fun s ->
        (match step_fanout graph s with Some f -> running := !running *. f | None -> ());
        (match step_selectivity s with Some sel -> running := !running *. sel | None -> ());
        total := !total +. !running)
      steps;
    !total
  in
  let uni_left =
    match reverse_traversal right with
    | steps -> Some (cost_left +. continuation_cost steps ~card:card_left)
    | exception Not_reversible _ -> None
  in
  let uni_right =
    match reverse_traversal left with
    | steps -> Some (cost_right +. continuation_cost steps ~card:card_right)
    | exception Not_reversible _ -> None
  in
  let bidir = cost_left +. cost_right in
  let candidates =
    List.filter_map Fun.id
      [
        Some (Bidirectional, bidir);
        Option.map (fun c -> (Expand_left, c)) uni_left;
        Option.map (fun c -> (Expand_right, c)) uni_right;
      ]
  in
  let best =
    List.fold_left
      (fun (bp, bc) (p, c) -> if c < bc then (p, c) else (bp, bc))
      (Bidirectional, bidir) candidates
  in
  fst best

(* Rewrite a join pattern under the chosen plan. Unidirectional plans
   flatten into a single traversal that passes *through* the join vertex:
   it is bound there, the reversed far side verifies the rest of the
   pattern, and a select jumps back before the continuation runs. *)
let join_binding = "__join"

let apply_plan plan (left : Ast.traversal) (right : Ast.traversal) post =
  let flatten near far =
    Ast.Traversal
      {
        near with
        Ast.steps =
          near.Ast.steps
          @ (Ast.As join_binding :: reverse_traversal far)
          @ (Ast.Select join_binding :: post);
      }
  in
  match plan with
  | Bidirectional -> Ast.Join_of { left; right; post }
  | Expand_left -> flatten left right
  | Expand_right -> flatten right left
