(* Fig 9 extension: scaling past the paper's 8 nodes.

   The paper's evaluation stops at 8 nodes; this sweep asks what
   serializes first at 64/128/256. The answer, measured here, is the
   flat §IV-A termination design: every worker's progress flush lands on
   the query coordinator, so the root tracker absorbs O(workers)
   messages per flush epoch while everything else about the traversal
   parallelizes. The table sweeps a concurrent k-hop batch across node
   counts, reporting throughput next to the root tracker's receipts. *)

open Pstm_engine
open Harness
module J = Pstm_obs.Json

(* A batch of concurrent k-hop queries, the Fig 9 workload shape: enough
   resident queries that every worker contributes finished weight to
   many coordinators at once. *)
let batch graph ~starts ~hops =
  Array.map (fun start -> Engine.submit (khop_program graph ~start ~hops)) starts

type cell = {
  c_makespan_ms : float;
  c_tps : float; (* traverser steps per simulated second *)
  c_root_rx : int; (* weight receipts at root trackers *)
  c_progress_msgs : int;
}

let cell graph ~starts ~hops ~nodes ~workers =
  let report = run_graphdance ~config:(cluster ~nodes ~workers) graph (batch graph ~starts ~hops) in
  let m = report.Engine.metrics in
  let sim_s = Sim_time.to_s report.Engine.makespan in
  {
    c_makespan_ms = Sim_time.to_ms report.Engine.makespan;
    c_tps = fi (Metrics.steps m) /. sim_s;
    c_root_rx = Metrics.tracker_updates m;
    c_progress_msgs = Metrics.messages m Metrics.Progress_msg;
  }

let run () =
  let graph = Pstm_gen.Datasets.load Pstm_gen.Datasets.lj_like in
  let starts = khop_starts graph ~seed:23 ~n:8 in
  let hops = 4 in
  let workers = 4 in
  let base = ref None in
  let rows =
    List.map
      (fun nodes ->
        let c = cell graph ~starts ~hops ~nodes ~workers in
        if !base = None then base := Some (c, nodes);
        let base_cell, base_nodes = Option.get !base in
        record_json
          (J.Obj
             [
               ("kind", J.Str "scale");
               ("nodes", J.Int nodes);
               ("workers_per_node", J.Int workers);
               ("makespan_ms", J.Float c.c_makespan_ms);
               ("tps", J.Float c.c_tps);
               ("root_rx", J.Int c.c_root_rx);
               ("progress_msgs", J.Int c.c_progress_msgs);
             ]);
        (* Scaling relative to the smallest configuration, normalized by
           the node ratio: 1.0 = perfectly linear. *)
        let lin = c.c_tps /. base_cell.c_tps /. (fi nodes /. fi base_nodes) in
        [
          string_of_int nodes;
          ms c.c_makespan_ms;
          Printf.sprintf "%.3e" c.c_tps;
          Printf.sprintf "%.2f" lin;
          string_of_int c.c_root_rx;
          string_of_int c.c_progress_msgs;
        ])
      [ 8; 64; 128; 256 ]
  in
  print_table
    ~title:
      (Printf.sprintf
         "Fig 9 extension: %d concurrent %d-hop queries (lj-like, %d workers/node)"
         (Array.length starts) hops workers)
    ~headers:[ "nodes"; "makespan ms"; "traversers/s"; "lin"; "root rx"; "progress msgs" ]
    rows
