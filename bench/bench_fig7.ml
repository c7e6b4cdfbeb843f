(* Figure 7: mixed LDBC SNB interactive workload.

   Average and P99 latency per query type (IC1-14, IS1-7) at TCR 3, 0.3
   and 0.03, GraphDance vs the BSP (TigerGraph-role) engine. The paper's
   headline behaviour to reproduce: GraphDance is consistently faster,
   and the BSP engine cannot keep up at TCR 0.03. *)

open Pstm_ldbc
open Harness

let duration = Pstm_sim.Sim_time.ms 150

let run_one data ~tcr =
  let gd =
    Driver.run_mixed_async ~cluster_config:paper_cluster ~duration ~tcr ~seed:42 data
  in
  let bsp = Driver.run_mixed_bsp ~cluster_config:paper_cluster ~duration ~tcr ~seed:42 data in
  (gd, bsp)

let cell (summary : Pstm_util.Stats.summary option) ~kept_up =
  match summary with
  | _ when not kept_up -> "DNF"
  | None -> "-"
  | Some s -> Printf.sprintf "%.2f/%.2f" s.Pstm_util.Stats.mean s.Pstm_util.Stats.p99

let run () =
  let data = Snb_gen.load Snb_gen.snb_s in
  let tcrs = [ 3.0; 0.3; 0.03 ] in
  let results = List.map (fun tcr -> (tcr, run_one data ~tcr)) tcrs in
  List.iter
    (fun (tcr, ((gd : Driver.mixed_result), (bsp : Driver.mixed_result))) ->
      record_report ~label:(Printf.sprintf "fig7.gd.tcr%.2g" tcr) gd.Driver.report;
      record_report ~label:(Printf.sprintf "fig7.bsp.tcr%.2g" tcr) bsp.Driver.report)
    results;
  let names = List.map fst (Ic_queries.all @ Is_queries.all) in
  let find (r : Driver.mixed_result) name = List.assoc_opt name r.Driver.per_query in
  let rows =
    List.map
      (fun name ->
        name
        :: List.concat_map
             (fun (_, (gd, bsp)) ->
               [
                 cell (find gd name) ~kept_up:gd.Driver.kept_up;
                 cell (find bsp name) ~kept_up:bsp.Driver.kept_up;
               ])
             results)
      names
  in
  let headers =
    "Query"
    :: List.concat_map
         (fun tcr -> [ Printf.sprintf "GD tcr=%.2g" tcr; Printf.sprintf "BSP tcr=%.2g" tcr ])
         tcrs
  in
  print_table ~title:"Figure 7: mixed workload latency, avg/p99 ms (DNF = cannot keep up)"
    ~headers rows;
  (* Update operations, priced by the §IV-C cost model (not plotted in
     the paper's Figure 7, but part of the mixed workload). *)
  let upd = Driver.run_updates ~duration ~tcr:0.3 ~seed:43 data in
  print_table
    ~title:"Mixed workload update operations (TCR 0.3), priced by footprint (locks, appends)"
    ~headers:[ "Update"; "mean (ms)"; "p99 (ms)"; "count" ]
    (List.map
       (fun (name, (s : Pstm_util.Stats.summary)) ->
         [ name; ms s.Pstm_util.Stats.mean; ms s.Pstm_util.Stats.p99; string_of_int s.Pstm_util.Stats.count ])
       upd.Driver.per_kind);
  Printf.printf "  updates: %d committed, %d aborted (one update in flight: none conflicts)
" upd.Driver.committed
    upd.Driver.aborted;
  (* Aggregate reduction, the paper's headline number. *)
  List.iter
    (fun (tcr, ((gd : Driver.mixed_result), (bsp : Driver.mixed_result))) ->
      if gd.Driver.kept_up && bsp.Driver.kept_up then begin
        let ratios =
          List.filter_map
            (fun name ->
              match find gd name, find bsp name with
              | Some g, Some b when b.Pstm_util.Stats.mean > 0.0 ->
                Some (1.0 -. (g.Pstm_util.Stats.mean /. b.Pstm_util.Stats.mean))
              | _ -> None)
            names
        in
        Printf.printf
          "  TCR %.2g: GraphDance mean latency reduction vs BSP across query types: %s\n" tcr
          (pct (100.0 *. Pstm_util.Stats.mean (Array.of_list ratios)))
      end
      else
        Printf.printf "  TCR %.2g: GraphDance kept up: %b; BSP kept up: %b\n" tcr
          gd.Driver.kept_up bsp.Driver.kept_up)
    results
