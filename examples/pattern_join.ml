(* Bidirectional pattern matching — the paper's Figure 3.

   "Given a person p and a tag t, find all posts created by one- or
   two-hop friends of p with tag t." The pattern can be matched by
   expanding from either endpoint or by splitting it at the creator and
   joining the two partial paths with the double-pipelined join. This
   example shows the cost-based planner's estimates, its choice, and the
   measured cost of every feasible plan.

     dune exec examples/pattern_join.exe *)

open Pstm_engine
open Pstm_query
open Pstm_ldbc

let () =
  let data = Snb_gen.load Snb_gen.snb_s in
  let graph = data.Snb_gen.graph in
  let person = 77 in
  let tag = "Tag_3" in
  Fmt.pr "pattern: person %d -knows*2- v -hasCreator- post -hasTag- %s@.@." person tag;
  (* The two partial paths of Figure 3, meeting at the post. *)
  let left =
    Dsl.(
      v_lookup ~label:Snb_schema.person ~key:"id" (int person)
      |> as_ "p"
      |> repeat_out Snb_schema.knows ~times:2
      |> where_neq "p"
      |> in_ Snb_schema.has_creator
      |> has_label Snb_schema.post
      |> traversal)
  in
  let right =
    Dsl.(
      v_lookup ~label:Snb_schema.tag ~key:"name" (str tag)
      |> in_ Snb_schema.has_tag
      |> has_label Snb_schema.post
      |> traversal)
  in
  let post = [ Ast.Values "content" ] in
  (* Planner estimates. *)
  let cost_l, card_l = Planner.traversal_cost graph left in
  let cost_r, card_r = Planner.traversal_cost graph right in
  Fmt.pr "estimates: PathA cost %.0f (%.0f matches), PathB cost %.0f (%.0f matches)@." cost_l
    card_l cost_r card_r;
  let chosen = Planner.choose graph ~left ~right in
  Fmt.pr "planner chooses: %s@.@." (Planner.plan_name chosen);
  (* Execute every feasible plan and compare. *)
  List.iter
    (fun plan ->
      match Compile.compile_with_plan ~name:"fig3" graph ~plan ~left ~right ~post with
      | exception Planner.Not_reversible reason ->
        Fmt.pr "%-20s infeasible (%s)@." (Planner.plan_name plan) reason
      | program ->
        let report =
          Async_engine.run ~cluster_config:Cluster.default_config
            ~channel_config:Channel.default_config ~graph
            [| Engine.submit program |]
        in
        let q = report.Engine.queries.(0) in
        Fmt.pr "%-20s %d rows, %.3f ms simulated, %d traverser steps%s@."
          (Planner.plan_name plan) (List.length q.Engine.rows) (Engine.latency_ms q)
          Metrics.(get report.Engine.metrics Counter.steps)
          (if plan = chosen then "   <- chosen" else ""))
    [ Planner.Bidirectional; Planner.Expand_left; Planner.Expand_right ]
