(* Tests for the query layer: strategies, parser, compiler and planner. *)

open Pstm_engine
open Pstm_query

let qcheck = QCheck_alcotest.to_alcotest

let show_rows rows =
  Fmt.str "%a" (Fmt.list ~sep:(Fmt.any "@.") (Fmt.array ~sep:(Fmt.any "|") Value.pp))
    (Engine.sorted_rows rows)

(* --- Strategies --- *)

let test_index_lookup_strategy () =
  let t =
    { Ast.source = Ast.Scan_all (Some "Person"); steps = [ Ast.Has ("id", Ast.Eq (Value.Int 5)); Ast.Count ] }
  in
  match Strategies.apply_traversal t with
  | { Ast.source = Ast.Lookup { label = Some "Person"; key = "id"; value = Value.Int 5 }; steps = [ Ast.Count ] } ->
    ()
  | other -> Alcotest.fail (Fmt.str "unexpected rewrite: %a" Ast.pp_traversal other)

let test_label_pushdown () =
  let t = { Ast.source = Ast.Scan_all None; steps = [ Ast.Has_label "Tag"; Ast.Count ] } in
  match Strategies.apply_traversal t with
  | { Ast.source = Ast.Scan_all (Some "Tag"); steps = [ Ast.Count ] } -> ()
  | other -> Alcotest.fail (Fmt.str "unexpected rewrite: %a" Ast.pp_traversal other)

let test_order_limit_fusion () =
  match Strategies.fuse_order_limit [ Ast.Out None; Ast.Order_by "w"; Ast.Limit 5 ] with
  | Some [ Ast.Out None; Ast.Top_k { key = "w"; k = 5 } ] -> ()
  | _ -> Alcotest.fail "expected top-k fusion"

let test_redundant_dedup_dropped () =
  let repeat = Ast.Repeat { dir = Graph.Out; label = None; times = 2 } in
  (match Strategies.drop_redundant_dedup [ repeat; Ast.Dedup; Ast.Count ] with
  | Some [ Ast.Repeat _; Ast.Count ] -> ()
  | _ -> Alcotest.fail "expected dedup removal");
  match Strategies.collapse_dedup [ Ast.Dedup; Ast.Dedup; Ast.Dedup ] with
  | Some [ Ast.Dedup; Ast.Dedup ] -> ()
  | _ -> Alcotest.fail "expected dedup collapse"

let test_strategy_fixpoint () =
  (* hasLabel then has(eq) collapses all the way into a labeled lookup. *)
  let ast =
    Ast.Traversal
      {
        Ast.source = Ast.Scan_all None;
        steps =
          [
            Ast.Has_label "Person";
            Ast.Has ("id", Ast.Eq (Value.Int 3));
            Ast.Order_by "w";
            Ast.Limit 2;
          ];
      }
  in
  match Strategies.apply ast with
  | Ast.Traversal
      { Ast.source = Ast.Lookup { label = Some "Person"; _ }; steps = [ Ast.Top_k _ ] } ->
    ()
  | other -> Alcotest.fail (Fmt.str "unexpected: %a" Ast.pp other)

(* Strategies preserve semantics on a real graph. *)
let test_strategies_preserve_semantics () =
  let graph = Pstm_gen.Datasets.load Pstm_gen.Datasets.tiny in
  (* Compile once with strategies (the default pipeline) and once from a
     hand-lowered unoptimized equivalent: a full scan with a filter. *)
  let optimized =
    Compile.compile ~name:"opt" graph
      (Ast.Traversal
         {
           Ast.source = Ast.Scan_all None;
           steps = [ Ast.Has ("id", Ast.Eq (Value.Int 9)); Ast.Out (Some "link"); Ast.Count ];
         })
  in
  let manual =
    Compile.compile ~name:"manual" graph
      (Ast.Traversal
         {
           Ast.source = Ast.Scan_all None;
           steps = [ Ast.Has ("id", Ast.Ne (Value.Int (-1))); Ast.Has ("id", Ast.Eq (Value.Int 9)); Ast.Out (Some "link"); Ast.Count ];
         })
  in
  Alcotest.(check string) "same answer"
    (show_rows (Local_engine.run graph optimized))
    (show_rows (Local_engine.run graph manual))

(* --- Parser --- *)

let test_parser_roundtrip_semantics () =
  let graph = Pstm_gen.Datasets.load Pstm_gen.Datasets.tiny in
  let text =
    "g.V().has('id', 3).as('s').repeat(out('link')).times(2).where(neq('s'))\n\
     .order().by('weight', desc).limit(10)"
  in
  let parsed = Parser.parse_exn text in
  let dsl =
    Dsl.(
      v_lookup ~key:"id" (int 3)
      |> as_ "s"
      |> repeat_out "link" ~times:2
      |> where_neq "s"
      |> top_k "weight" 10
      |> build)
  in
  let rows_of ast = show_rows (Local_engine.run graph (Compile.compile graph ast)) in
  Alcotest.(check string) "parsed equals dsl" (rows_of dsl) (rows_of parsed)

let test_parser_steps () =
  (* Each supported construct parses. *)
  List.iter
    (fun text ->
      match Parser.parse text with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Fmt.str "%s: %s" text e))
    [
      "g.V().count()";
      "g.V().hasLabel('Person').out('knows').in('likes').both('x').dedup().count()";
      "g.V().has('age', gt(30)).has('age', lte(40)).has('name', within('a', 'b')).count()";
      "g.V().values('name')";
      "g.V().out().limit(3)";
      "g.V().groupCount('city')";
      "g.V().sum('w')";
      "g.V().max('w')";
      "g.V().min('w')";
      "g.V().has('pi', 3.14).count()";
      "g.V().has('neg', -5).count()";
      "g.V().has('flag', true).count()";
    ]

let test_parser_errors () =
  List.iter
    (fun text ->
      match Parser.parse text with
      | Ok _ -> Alcotest.fail (Fmt.str "expected error for %s" text)
      | Error _ -> ())
    [
      "";
      "h.V().count()";
      "g.E().count()";
      "g.V().frobnicate()";
      "g.V().has('k' 5)";
      "g.V().repeat(dedup()).times(2)";
      "g.V().repeat(out('x'))";
      "g.V().order().count()";
      "g.V().has('k', 'unterminated";
      "g.V().where(eq('x'))";
    ]

(* --- Compiler --- *)

let test_compile_errors () =
  let graph = Pstm_gen.Datasets.load Pstm_gen.Datasets.tiny in
  let expect_error name ast =
    match Compile.compile ~name graph ast with
    | _ -> Alcotest.fail (name ^ ": expected Compile.Error")
    | exception Compile.Error _ -> ()
  in
  expect_error "movement after values"
    (Ast.Traversal { Ast.source = Ast.Scan_all None; steps = [ Ast.Values "w"; Ast.Out None ] });
  expect_error "unbound select"
    (Ast.Traversal { Ast.source = Ast.Scan_all None; steps = [ Ast.Select "nope" ] });
  expect_error "unbound where"
    (Ast.Traversal { Ast.source = Ast.Scan_all None; steps = [ Ast.Where_neq "nope" ] });
  expect_error "unfused order"
    (Ast.Traversal { Ast.source = Ast.Scan_all None; steps = [ Ast.Order_by "w"; Ast.Count ] });
  expect_error "zero-hop repeat"
    (Ast.Traversal
       { Ast.source = Ast.Scan_all None; steps = [ Ast.Repeat { dir = Graph.Out; label = None; times = 0 } ] })

let test_compile_unknown_labels_match_nothing () =
  let graph = Pstm_gen.Datasets.load Pstm_gen.Datasets.tiny in
  let program =
    Compile.compile ~name:"ghost" graph
      Dsl.(v ~label:"Ghost" () |> out_ "spectral" |> count |> build)
  in
  match Local_engine.run graph program with
  | [ [| Value.Int 0 |] ] -> ()
  | rows -> Alcotest.fail (Fmt.str "expected count 0, got %s" (show_rows rows))

(* Compiling never interns a name: the graph's schema is shared by every
   query on it, so a name one query mentions must not change it. *)
let test_compile_leaves_schema () =
  let graph = Pstm_gen.Datasets.load Pstm_gen.Datasets.tiny in
  let schema = Graph.schema graph in
  ignore
    (Compile.compile ~name:"other" graph
       Dsl.(v ~label:"Other" () |> out_ "other" |> has "other_key" (eq (int 1)) |> count |> build)
      : Program.t);
  Alcotest.(check (option int)) "edge label" None (Schema.edge_label_opt schema "other");
  Alcotest.(check (option int)) "vertex label" None (Schema.vertex_label_opt schema "Other");
  Alcotest.(check (option int)) "property key" None (Schema.property_key_opt schema "other_key")

let test_select_moves_back () =
  let graph = Pstm_gen.Datasets.load Pstm_gen.Datasets.tiny in
  (* Walk away and select back: the count equals counting the start. *)
  let program =
    Compile.compile ~name:"select" graph
      Dsl.(
        v_lookup ~key:"id" (int 4)
        |> as_ "home"
        |> out_ "link"
        |> select "home"
        |> dedup
        |> count
        |> build)
  in
  match Local_engine.run graph program with
  | [ [| Value.Int n |] ] ->
    let expected = if Graph.out_degree graph 4 > 0 then 1 else 0 in
    Alcotest.(check int) "back home once" expected n
  | rows -> Alcotest.fail (Fmt.str "unexpected %s" (show_rows rows))

(* --- Prepared queries --- *)

(* [map_literals f ast] replaces every literal of [ast], in one fixed
   order (the source, then each step left to right; a join's left side,
   right side, then continuation), by [f] of it. *)
let map_literals f ast =
  let pred = function
    | Ast.Eq v -> Ast.Eq (f v)
    | Ast.Ne v -> Ast.Ne (f v)
    | Ast.Lt v -> Ast.Lt (f v)
    | Ast.Le v -> Ast.Le (f v)
    | Ast.Gt v -> Ast.Gt (f v)
    | Ast.Ge v -> Ast.Ge (f v)
    | Ast.Within vs -> Ast.Within (List.map f vs)
  in
  let gstep = function Ast.Has (k, p) -> Ast.Has (k, pred p) | s -> s in
  let traversal (t : Ast.traversal) =
    let source =
      match t.Ast.source with
      | Ast.Lookup l -> Ast.Lookup { l with value = f l.value }
      | s -> s
    in
    { Ast.source; steps = List.map gstep t.Ast.steps }
  in
  match ast with
  | Ast.Traversal t -> Ast.Traversal (traversal t)
  | Ast.Join_of { left; right; post } ->
    let left = traversal left in
    let right = traversal right in
    Ast.Join_of { left; right; post = List.map gstep post }

let gen_literal =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun n -> Value.Int n) (int_range (-5) 300));
        (2, map (fun s -> Value.Str s) (oneofl [ "a"; "b"; "Tag_1" ]));
        (1, map (fun x -> Value.Float x) (float_range 0.0 10.0));
        (1, map (fun b -> Value.Bool b) bool);
        (1, return Value.Null);
      ])

let gen_pred =
  QCheck.Gen.(
    gen_literal >>= fun v ->
    frequency
      [
        (1, return (Ast.Eq v)); (1, return (Ast.Ne v)); (1, return (Ast.Lt v));
        (1, return (Ast.Le v)); (1, return (Ast.Gt v)); (1, return (Ast.Ge v));
        (3, map (fun vs -> Ast.Within vs) (list_size (int_range 0 3) gen_literal));
      ])

let gen_label = QCheck.Gen.oneofl [ None; Some "link"; Some "other" ]

(* Steps that keep a vertex focus; a join side is made of these. *)
let gen_vertex_step =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun l -> Ast.Out l) gen_label);
        (2, map (fun l -> Ast.In l) gen_label);
        (1, map (fun l -> Ast.Both l) gen_label);
        (4, map2 (fun k p -> Ast.Has (k, p)) (oneofl [ "id"; "weight" ]) gen_pred);
        (1, map (fun l -> Ast.Has_label l) (oneofl [ "vertex"; "other" ]));
      ])

let gen_tail =
  QCheck.Gen.(
    oneofl
      [
        []; [ Ast.Dedup; Ast.Count ]; [ Ast.Top_k { key = "weight"; k = 3 } ];
        [ Ast.Group_count "weight" ]; [ Ast.Values "weight" ]; [ Ast.Limit 4 ];
        [ Ast.Repeat { dir = Graph.Out; label = Some "link"; times = 2 }; Ast.Count ];
        [ Ast.As "x"; Ast.Out None; Ast.Where_neq "x"; Ast.Sum_of "weight" ];
      ])

let gen_source =
  QCheck.Gen.(
    frequency
      [
        (1, map (fun l -> Ast.Scan_all l) (oneofl [ None; Some "vertex" ]));
        (3, map2 (fun label value -> Ast.Lookup { label; key = "id"; value })
              (oneofl [ None; Some "vertex" ]) gen_literal);
      ])

let gen_traversal =
  QCheck.Gen.(
    map2 (fun source steps -> { Ast.source; steps }) gen_source
      (list_size (int_range 0 4) gen_vertex_step))

let gen_query =
  QCheck.Gen.(
    frequency
      [
        (3, map2 (fun t tail -> Ast.Traversal { t with Ast.steps = t.Ast.steps @ tail })
              gen_traversal gen_tail);
        (1, map3 (fun left right post -> Ast.Join_of { left; right; post })
              gen_traversal gen_traversal gen_tail);
      ])

(* [Compile.prepare] then a binding equals [Compile.compile] of the same
   query with those literals: the same steps, compared structurally, the
   same printed program, registers and entries. A query that fails to
   compile fails to prepare with the same message. *)
let prepare_matches_compile =
  QCheck.Test.make ~name:"prepare then bind equals compile" ~count:300
    (QCheck.make ~print:(Fmt.str "%a" Ast.pp) gen_query)
    (fun ast ->
      let graph = Pstm_gen.Datasets.load Pstm_gen.Datasets.tiny in
      let literals = ref [] in
      ignore (map_literals (fun v -> literals := v :: !literals; v) ast : Ast.t);
      let values = Array.of_list (List.rev !literals) in
      let query p =
        let i = ref 0 in
        map_literals (fun _ -> let v = p.(!i) in incr i; v) ast
      in
      let outcome f =
        match f () with
        | program ->
          Ok
            ( Program.steps program,
              Fmt.str "%a" Program.pp program,
              Program.n_registers program,
              Program.entries program )
        | exception Compile.Error msg -> Error msg
      in
      let full = outcome (fun () -> Compile.compile ~name:"q" graph ast) in
      let bound =
        outcome (fun () -> Compile.prepare ~name:"q" graph ~params:(Array.length values) query values)
      in
      full = bound)

(* --- Planner --- *)

let test_reverse_traversal () =
  let t =
    {
      Ast.source = Ast.Lookup { label = Some "Tag"; key = "name"; value = Value.Str "t" };
      steps = [ Ast.In (Some "hasTag"); Ast.Has_label "Post" ];
    }
  in
  match Planner.reverse_traversal t with
  | [ Ast.Has_label "Post"; Ast.Out (Some "hasTag"); Ast.Has_label "Tag"; Ast.Has ("name", Ast.Eq (Value.Str "t")) ] ->
    ()
  | steps ->
    Alcotest.fail
      (Fmt.str "unexpected reversal: %a" (Fmt.list ~sep:(Fmt.any ".") Ast.pp_gstep) steps)

let test_reverse_rejects_stateful () =
  let t = { Ast.source = Ast.Scan_all None; steps = [ Ast.Out None; Ast.Dedup ] } in
  Alcotest.(check bool) "dedup not reversible" true
    (match Planner.reverse_traversal t with
    | _ -> false
    | exception Planner.Not_reversible _ -> true)

(* All feasible plans of a join pattern must give the same rows — the
   plan choice is a pure performance decision. *)
let test_join_plans_equivalent () =
  let data = Pstm_ldbc.Snb_gen.load Pstm_ldbc.Snb_gen.snb_tiny in
  let graph = data.Pstm_ldbc.Snb_gen.graph in
  let prng = Prng.create 3 in
  let left, right, post = Pstm_ldbc.Ic_queries.ic6_sides data prng in
  let results =
    List.filter_map
      (fun plan ->
        match Compile.compile_with_plan ~name:"plans" graph ~plan ~left ~right ~post with
        | exception Planner.Not_reversible _ -> None
        | program -> Some (Planner.plan_name plan, show_rows (Local_engine.run graph program)))
      [ Planner.Bidirectional; Planner.Expand_left; Planner.Expand_right ]
  in
  Alcotest.(check bool) "at least two feasible plans" true (List.length results >= 2);
  match results with
  | (_, first) :: rest ->
    List.iter (fun (name, rows) -> Alcotest.(check string) name first rows) rest
  | [] -> assert false

let test_label_stats () =
  let data = Pstm_ldbc.Snb_gen.load Pstm_ldbc.Snb_gen.snb_tiny in
  let graph = data.Pstm_ldbc.Snb_gen.graph in
  let stats = Planner.label_stats graph in
  let schema = Graph.schema graph in
  let knows = Schema.edge_label_exn schema Pstm_ldbc.Snb_schema.knows in
  (match Hashtbl.find_opt stats knows with
  | Some s ->
    Alcotest.(check bool) "counts positive" true (s.Planner.count > 0);
    Alcotest.(check bool) "distinct bounded by count" true
      (s.Planner.distinct_sources <= s.Planner.count)
  | None -> Alcotest.fail "knows label missing from stats");
  (* hasTag fans out much wider inward than outward. *)
  let fan_in = Planner.step_fanout graph (Ast.In (Some Pstm_ldbc.Snb_schema.has_tag)) in
  let fan_out = Planner.step_fanout graph (Ast.Out (Some Pstm_ldbc.Snb_schema.has_tag)) in
  match fan_in, fan_out with
  | Some i, Some o -> Alcotest.(check bool) "posts-per-tag > tags-per-post" true (i > o)
  | _ -> Alcotest.fail "expected fanouts"

(* Statistics belong to the graph they describe: two graphs with the
   same vertex and edge counts (4 and 3) but 2 and 1 edges labelled "a"
   each report their own count, whichever is asked first. *)
let test_label_stats_per_graph () =
  let graph labels =
    let b = Builder.create () in
    for _ = 1 to 4 do
      ignore (Builder.add_vertex b ~label:"v" ())
    done;
    List.iteri (fun i label -> ignore (Builder.add_edge b ~src:i ~label ~dst:(i + 1) ())) labels;
    Builder.build b
  in
  let g1 = graph [ "a"; "a"; "b" ] and g2 = graph [ "a"; "b"; "b" ] in
  let count g =
    let a = Schema.edge_label_exn (Graph.schema g) "a" in
    (Hashtbl.find (Planner.label_stats g) a).Planner.count
  in
  Alcotest.(check int) "first graph" 2 (count g1);
  Alcotest.(check int) "second graph" 1 (count g2);
  Alcotest.(check int) "first graph again" 2 (count g1)

(* A label no edge carries has fanout 0 whether or not a compile has
   interned its name: the plan of a query must not depend on what was
   compiled before it. *)
let test_fanout_ignores_interning () =
  let graph = Pstm_gen.Datasets.load Pstm_gen.Datasets.tiny in
  let fanout () = Planner.step_fanout graph (Ast.Out (Some "never_an_edge_label")) in
  Alcotest.(check (option (float 0.0))) "before interning" (Some 0.0) (fanout ());
  ignore (Schema.edge_label (Graph.schema graph) "never_an_edge_label" : int);
  Alcotest.(check (option (float 0.0))) "after interning" (Some 0.0) (fanout ())

(* Random traversals always produce equal rows whether compiled via the
   planner-flattened form or executed as a bidirectional join. *)
let join_vs_flatten =
  QCheck.Test.make ~name:"join plans agree on random tag patterns" ~count:20
    QCheck.(pair (int_range 0 199) (int_range 0 40))
    (fun (person, tag) ->
      let data = Pstm_ldbc.Snb_gen.load Pstm_ldbc.Snb_gen.snb_tiny in
      let graph = data.Pstm_ldbc.Snb_gen.graph in
      let left =
        Dsl.(
          v_lookup ~label:Pstm_ldbc.Snb_schema.person ~key:"id" (int person)
          |> out_ Pstm_ldbc.Snb_schema.knows
          |> in_ Pstm_ldbc.Snb_schema.has_creator
          |> has_label Pstm_ldbc.Snb_schema.post
          |> traversal)
      in
      let right =
        Dsl.(
          v_lookup ~label:Pstm_ldbc.Snb_schema.tag ~key:"name" (str (Fmt.str "Tag_%d" tag))
          |> in_ Pstm_ldbc.Snb_schema.has_tag
          |> has_label Pstm_ldbc.Snb_schema.post
          |> traversal)
      in
      let post = [ Ast.Count ] in
      let rows plan =
        match Compile.compile_with_plan ~name:"jf" graph ~plan ~left ~right ~post with
        | exception Planner.Not_reversible _ -> None
        | program -> Some (show_rows (Local_engine.run graph program))
      in
      match rows Planner.Bidirectional, rows Planner.Expand_left, rows Planner.Expand_right with
      | Some a, Some b, Some c -> a = b && b = c
      | Some a, Some b, None | Some a, None, Some b -> a = b
      | _ -> false)

let () =
  Alcotest.run "query"
    [
      ( "strategies",
        [
          Alcotest.test_case "index lookup" `Quick test_index_lookup_strategy;
          Alcotest.test_case "label pushdown" `Quick test_label_pushdown;
          Alcotest.test_case "order+limit fusion" `Quick test_order_limit_fusion;
          Alcotest.test_case "redundant dedup" `Quick test_redundant_dedup_dropped;
          Alcotest.test_case "fixpoint" `Quick test_strategy_fixpoint;
          Alcotest.test_case "semantics preserved" `Quick test_strategies_preserve_semantics;
        ] );
      ( "parser",
        [
          Alcotest.test_case "round-trip semantics" `Quick test_parser_roundtrip_semantics;
          Alcotest.test_case "all steps parse" `Quick test_parser_steps;
          Alcotest.test_case "errors rejected" `Quick test_parser_errors;
        ] );
      ( "compiler",
        [
          Alcotest.test_case "errors" `Quick test_compile_errors;
          Alcotest.test_case "unknown labels" `Quick test_compile_unknown_labels_match_nothing;
          Alcotest.test_case "unknown names leave the schema" `Quick test_compile_leaves_schema;
          Alcotest.test_case "select moves back" `Quick test_select_moves_back;
          qcheck prepare_matches_compile;
        ] );
      ( "planner",
        [
          Alcotest.test_case "reverse traversal" `Quick test_reverse_traversal;
          Alcotest.test_case "rejects stateful" `Quick test_reverse_rejects_stateful;
          Alcotest.test_case "plans equivalent" `Quick test_join_plans_equivalent;
          Alcotest.test_case "label stats" `Quick test_label_stats;
          Alcotest.test_case "label stats per graph" `Quick test_label_stats_per_graph;
          Alcotest.test_case "fanout ignores interning" `Quick test_fanout_ignores_interning;
          qcheck join_vs_flatten;
        ] );
    ]
