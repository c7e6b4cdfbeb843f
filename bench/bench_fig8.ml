(* Figure 8: individual interactive complex queries.

   Minimum latency (sequential submission) and maximum throughput
   (concurrent streams) for every IC query on both SNB scales, comparing
   GraphDance, the BSP engine and the non-partitioned graph model. Also
   covers §V-A3: the single-node (GraphScope-role) comparison, including
   its collapse when the larger graph exceeds one node's memory. *)

open Pstm_engine
open Pstm_ldbc
open Harness

let repeats = 3
let streams = 64

let engines data =
  let graph = data.Snb_gen.graph in
  [
    ("GraphDance", fun subs -> run_graphdance graph subs);
    ("TigerGraph", fun subs -> run_bsp ~profile:Bsp_engine.Tigergraph_role graph subs);
    ("BSP-abl", fun subs -> run_bsp ~profile:Bsp_engine.Ablation graph subs);
    ("NonPart", fun subs -> run_non_partitioned graph subs);
  ]

let run_scale scale =
  let data = Snb_gen.load scale in
  let engines = engines data in
  let rows =
    List.map
      (fun (name, make) ->
        let lat_cells =
          List.map
            (fun (_, run) ->
              ms (Driver.sequential_latency ~run ~make ~repeats ~seed:91 data))
            engines
        in
        let tput_cells =
          List.map
            (fun (_, run) ->
              Printf.sprintf "%.0f" (Driver.max_throughput ~run ~make ~streams ~seed:92 data))
            engines
        in
        (name :: lat_cells) @ tput_cells)
      Ic_queries.all
  in
  let engine_names = List.map fst engines in
  let headers =
    ("Query" :: List.map (fun e -> e ^ " lat(ms)") engine_names)
    @ List.map (fun e -> e ^ " QPS") engine_names
  in
  print_table
    ~title:
      (Printf.sprintf "Figure 8 (%s): IC latency (sequential) and throughput (%d streams)"
         scale.Snb_gen.name streams)
    ~headers rows;
  (* Headline aggregates. *)
  let mean_of idx =
    let samples =
      List.map
        (fun row -> float_of_string (List.nth row idx))
        rows
    in
    Pstm_util.Stats.mean (Array.of_list samples)
  in
  let gd_lat = mean_of 1 and tg_lat = mean_of 2 and bsp_lat = mean_of 3 and np_lat = mean_of 4 in
  let gd_tput = mean_of 5 and tg_tput = mean_of 6 and np_tput = mean_of 8 in
  Printf.printf "  vs TigerGraph-role: %s lower latency, %.1fx higher throughput\n"
    (pct (100.0 *. (1.0 -. (gd_lat /. tg_lat))))
    (gd_tput /. Float.max tg_tput 1e-9);
  Printf.printf "  vs BSP execution (ablation): %s lower latency\n"
    (pct (100.0 *. (1.0 -. (gd_lat /. bsp_lat))));
  Printf.printf "  vs non-partitioned: %s lower latency, %.2fx higher throughput\n"
    (pct (100.0 *. (1.0 -. (gd_lat /. np_lat))))
    (gd_tput /. Float.max np_tput 1e-9)

(* §V-A3: single-node engine against the 8-node deployment. *)
let run_single_node () =
  let small = Snb_gen.load Snb_gen.snb_s in
  let large = Snb_gen.load Snb_gen.snb_l in
  (* One node comfortably fits the small graph but not the large one. *)
  let capacity = 2 * Graph.bytes small.Snb_gen.graph in
  (* Interactive time limit, scaled to our dataset size. *)
  let deadline = Pstm_sim.Sim_time.ms 4 in
  let timeouts = ref 0 in
  let rows =
    List.map
      (fun (qname, make) ->
        let cell data single =
          let prng = Pstm_util.Prng.create 17 in
          let program = make data prng in
          let report =
            if single then
              Engine.run_via_start
                (Single_node_engine.start ~memory_capacity:capacity ~workers:32
                   ~base_config:paper_cluster)
                ~common:(Engine.Common.with_deadline (Some deadline) Engine.Common.default)
                ~graph:data.Snb_gen.graph
                [| Engine.submit program |]
            else
              run_graphdance data.Snb_gen.graph [| Engine.submit program |]
          in
          match Engine.latency report.Engine.queries.(0) with
          | Some l -> Printf.sprintf "%.3f" (Pstm_sim.Sim_time.to_ms l)
          | None ->
            incr timeouts;
            "TIMEOUT"
        in
        [
          qname;
          cell small true;
          cell small false;
          cell large true;
          cell large false;
        ])
      Ic_queries.all
  in
  print_table
    ~title:
      "Section V-A3: single-node (GraphScope-role) vs 8-node GraphDance, latency ms"
    ~headers:
      [ "Query"; "1-node SNB-S"; "8-node SNB-S"; "1-node SNB-L"; "8-node SNB-L" ]
    rows;
  Printf.printf
    "  %d of 14 IC queries exceeded the time limit on the single node at SNB-L\n\
    \  (paper: 9 of 14 for GraphScope on SF1000 — the graph exceeds one node's\n\
    \  memory; the single node wins on the small graph, having no network)\n"
    !timeouts
