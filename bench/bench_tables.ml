(* Table I and Table II of the paper.

   Table I characterizes the three workload classes by actually running a
   representative of each on the simulated cluster and measuring accessed
   data, compute stages and latency. Table II reports the generated
   datasets standing in for the paper's. *)

open Pstm_engine
open Pstm_ldbc
open Harness

let table2 () =
  let rows =
    List.map
      (fun (name, vertices, edges, bytes) ->
        [
          name;
          string_of_int vertices;
          string_of_int edges;
          Printf.sprintf "%.1f MB" (fi bytes /. 1e6);
        ])
      [
        Snb_gen.row Snb_gen.snb_s;
        Snb_gen.row Snb_gen.snb_l;
        Pstm_gen.Datasets.row Pstm_gen.Datasets.lj_like;
        Pstm_gen.Datasets.row Pstm_gen.Datasets.fs_like;
      ]
  in
  print_table ~title:"Table II: graph datasets used in evaluation (scaled stand-ins)"
    ~headers:[ "Dataset"; "# Vertices"; "# Edges"; "Raw Size" ]
    rows;
  print_endline
    "  (SNB-S plays LDBC SF300, SNB-L plays SF1000, LJ-like plays LiveJournal,\n\
    \   FS-like plays Friendster; see DESIGN.md for the substitution rationale)"

(* One representative query per workload class, measured. *)
let table1 () =
  let data = Snb_gen.load Snb_gen.snb_s in
  let graph = data.Snb_gen.graph in
  let total_data = fi (Graph.n_vertices graph + Graph.n_edges graph) in
  let measure name program =
    let report = run_graphdance graph [| Engine.submit program |] in
    let metrics = report.Engine.metrics in
    let accessed =
      Float.min 100.0
        (100.0
        *. fi Pstm_sim.Metrics.(get metrics Counter.steps + get metrics Counter.edges_scanned)
        /. total_data)
    in
    let stages = Program.n_steps program in
    let latency = Engine.mean_latency_ms report in
    (name, accessed, stages, latency)
  in
  let prng = Pstm_util.Prng.create 5 in
  let transactional = measure "Transactional (IS4)" (Is_queries.is4 data prng) in
  let interactive = measure "Interactive Complex (IC9)" (Ic_queries.ic9 data prng) in
  let analytics =
    (* PageRank-style: one full pass over every adjacency list. *)
    measure "Offline Analytics (edge scan)"
      (Pstm_query.Compile.compile ~name:"scan-edges" graph
         Pstm_query.Dsl.(v () |> out () |> count |> build))
  in
  let rows =
    List.map
      (fun (name, accessed, stages, latency) ->
        [
          name;
          Printf.sprintf "%.4f%%" accessed;
          string_of_int stages;
          (if latency < 0.01 then Printf.sprintf "%.1f us" (latency *. 1000.0)
           else Printf.sprintf "%.3f ms" latency);
          Printf.sprintf "%.0f QPS" (1000.0 /. Float.max latency 1e-6);
        ])
      [ transactional; interactive; analytics ]
  in
  print_table
    ~title:"Table I: measured workload-class characteristics (SNB-S, 8-node cluster)"
    ~headers:[ "Workload"; "Accessed data"; "Plan steps"; "Latency"; "Per-stream QPS" ]
    rows
