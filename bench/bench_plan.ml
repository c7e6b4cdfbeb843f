(* Join-plan ablation (§III-A, Figure 3).

   The IC6 pattern — person's 2-hop friends' posts joined with posts
   carrying a given tag — executed under each plan the cost-based planner
   can choose: bidirectional double-pipelined join, or unidirectional
   expansion from either endpoint. Reports what the planner picked and
   how each plan actually performed. *)

open Pstm_engine
open Pstm_ldbc
open Harness

let run () =
  let data = Snb_gen.load Snb_gen.snb_s in
  let graph = data.Snb_gen.graph in
  let prng = Pstm_util.Prng.create 23 in
  let left, right, post = Ic_queries.ic6_sides data prng in
  let chosen = Pstm_query.Planner.choose graph ~left ~right in
  Printf.printf "\n  cost-based planner chose: %s\n" (Pstm_query.Planner.plan_name chosen);
  let plans =
    [
      Pstm_query.Planner.Bidirectional;
      Pstm_query.Planner.Expand_left;
      Pstm_query.Planner.Expand_right;
    ]
  in
  let rows =
    List.filter_map
      (fun plan ->
        match
          Pstm_query.Compile.compile_with_plan ~name:"IC6-plan" graph ~plan ~left ~right ~post
        with
        | exception Pstm_query.Planner.Not_reversible reason ->
          Some [ Pstm_query.Planner.plan_name plan; "infeasible"; "-"; "-"; reason ]
        | program ->
          let report = run_graphdance graph [| Engine.submit program |] in
          Some
            [
              Pstm_query.Planner.plan_name plan;
              ms (Engine.mean_latency_ms report);
              string_of_int Pstm_sim.Metrics.(get report.Engine.metrics Counter.steps);
              string_of_int Pstm_sim.Metrics.(get report.Engine.metrics Counter.spawned);
              (if plan = chosen then "<- chosen" else "");
            ])
      plans
  in
  print_table
    ~title:"Figure 3 ablation: IC6 under each join plan (SNB-S)"
    ~headers:[ "Plan"; "Latency (ms)"; "Steps executed"; "Traversers"; "" ]
    rows
