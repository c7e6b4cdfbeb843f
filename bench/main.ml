(* Benchmark harness entry point.

   Regenerates every table and figure of the paper's evaluation section
   on the simulated cluster. With no argument, runs every figure in paper
   order; with arguments, runs the named experiments:

     table1 table2 fig7 fig8 fig8l fig8sn fig9 fig10 fig11 fig12 fig13
     plan partition repartition khop critpath serve scale micro

   [--smoke] runs every entry flagged [smoke]: the CI fixtures behind the
   @smoke alias of [dune runtest], not figures.

   All latencies are simulated milliseconds on the 8-node cluster model;
   see DESIGN.md for the hardware substitution rationale and
   EXPERIMENTS.md for measured-vs-paper comparisons. *)

type experiment = {
  name : string;
  title : string;
  run : unit -> unit;
  smoke : bool;
}

let figure name title run = { name; title; run; smoke = false }
let smoke name title run = { name; title; run; smoke = true }

let experiments =
  [
    figure "table1" "Table I: workload-class characteristics" Bench_tables.table1;
    figure "table2" "Table II: dataset summaries" Bench_tables.table2;
    figure "fig7" "Figure 7: mixed LDBC SNB workload" Bench_fig7.run;
    figure "fig8" "Figure 8: individual IC queries (SNB-S)" (fun () ->
        Bench_fig8.run_scale Pstm_ldbc.Snb_gen.snb_s);
    figure "fig8l" "Figure 8: individual IC queries (SNB-L)" (fun () ->
        Bench_fig8.run_scale Pstm_ldbc.Snb_gen.snb_l);
    figure "fig8sn" "Section V-A3: single-node comparison" Bench_fig8.run_single_node;
    figure "fig9" "Figure 9: scalability" Bench_fig9.run;
    figure "fig10" "Figures 10-11: weight coalescing" Bench_breakdown.weight_coalescing;
    figure "fig12" "Figure 12: two-tier I/O scheduler" Bench_breakdown.io_scheduler;
    figure "fig13" "Figure 13: hardware impact" Bench_fig13.run;
    figure "plan" "Figure 3 ablation: join plans" Bench_plan.run;
    figure "partition" "Ablation: partition strategies" Bench_partition.run;
    figure "repartition" "Ablation: adaptive repartitioning" Bench_repartition.run;
    smoke "repartition-smoke" "Smoke: cold adaptive repartitioning with the sanitizer on"
      Bench_repartition.smoke;
    figure "khop" "k-hop throughput: frontier batching" Bench_khop.run;
    figure "critpath" "EXPLAIN LATENCY: critical-path attribution at 1/8/32 nodes"
      Bench_critpath.run;
    smoke "critpath-smoke" "Smoke: causal tracing + exact attribution across every registry engine"
      Bench_critpath.smoke;
    smoke "batch-smoke" "Smoke: batched execution with the sanitizer on"
      Bench_khop.smoke;
    smoke "mc-smoke" "Smoke: schedule exploration + protocol mutation catching" Bench_mc.smoke;
    figure "serve" "Service layer: open-loop load, admission control vs baseline" Bench_serve.run;
    figure "scale" "Fig 9 extension: flat progress tracking at 8-256 nodes" Bench_scale.run;
    smoke "serve-smoke" "Smoke: the query service over every registry engine, sanitizer on"
      Bench_serve.smoke;
    figure "micro" "Microbenchmarks" Bench_micro.run;
    smoke "smoke" "Smoke: one tiny config through the result pipeline" Harness.smoke;
    smoke "faults" "Fault sweep: GraphDance under an unreliable network" Bench_faults.run;
  ]

let names_where p = List.filter_map (fun e -> if p e then Some e.name else None) experiments

(* "--faults" is accepted as a spelling of the faults experiment. *)
let aliases = [ ("fig11", "fig10"); ("--faults", "faults") ]

let run_one name =
  let name = Option.value ~default:name (List.assoc_opt name aliases) in
  match List.find_opt (fun e -> e.name = name) experiments with
  | Some e ->
    Harness.section e.title;
    let t0 = Sys.time () in
    e.run ();
    Printf.printf "  [%s done in %.1fs cpu]\n%!" name (Sys.time () -. t0)
  | None ->
    Printf.eprintf "unknown experiment %S; available: %s\n" name
      (String.concat " " (names_where (fun _ -> true) @ List.map fst aliases));
    exit 1

(* Pull [--json PATH] out of argv; everything else is experiment names. *)
let rec extract_json_path = function
  | [] -> (None, [])
  | "--json" :: path :: rest ->
    let _, names = extract_json_path rest in
    (Some path, names)
  | [ "--json" ] ->
    prerr_endline "--json requires a file argument";
    exit 1
  | name :: rest ->
    let path, names = extract_json_path rest in
    (path, name :: names)

let () =
  print_endline "GraphDance / PSTM benchmark harness";
  print_endline "(all latencies are simulated time on the modeled 8-node cluster)";
  let args = match Array.to_list Sys.argv with [] -> [] | _ :: rest -> rest in
  let json_path, names = extract_json_path args in
  Harness.json_enabled := json_path <> None;
  (match names with
  | [] -> List.iter run_one (names_where (fun e -> not e.smoke))
  | names ->
    List.iter run_one
      (List.concat_map
         (fun n -> if n = "--smoke" then names_where (fun e -> e.smoke) else [ n ])
         names));
  match json_path with
  | None -> ()
  | Some path ->
    if !Harness.json_sink = [] then begin
      (* An experiment ran but recorded nothing: the mirroring in
         print_table / record_report has rotted. *)
      prerr_endline "--json given but no results were recorded";
      exit 1
    end;
    Harness.write_json path
