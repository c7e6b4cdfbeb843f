(* Fault-injection sweep: GraphDance under an unreliable network.

   Sweeps the per-packet drop rate (plus one combined drop + duplicate +
   delay + straggler scenario) on the Figure 1 k-hop query with the
   sanitizer on. The claim being measured: the reliable channel absorbs
   every injected fault — all queries complete with exact results, at a
   bounded retransmission overhead — and the run stays deterministic in
   the fault seed. Run via `bench faults` (or `bench --faults`). *)

open Pstm_engine
open Harness

let scenario ~label ~spec graph ~config ~start =
  let common =
    { Engine.Common.default with Engine.Common.check = true; faults = Some spec }
  in
  let report =
    khop_report ~run:(run_graphdance ~common ~config) graph ~hops:2 ~start
  in
  let q = report.Engine.queries.(0) in
  let m = report.Engine.metrics in
  ( report,
    [
      label;
      (if Engine.is_completed q then "yes" else "TIMEOUT");
      ms (Engine.latency_ms q);
      string_of_int Metrics.(get m Counter.packets);
      string_of_int Metrics.(get m Counter.fault_drops);
      string_of_int Metrics.(get m Counter.fault_dups);
      string_of_int Metrics.(get m Counter.fault_delays);
      string_of_int Metrics.(get m Counter.retransmits);
      string_of_int Metrics.(get m Counter.dup_dropped);
      string_of_int Metrics.(get m Counter.abandoned);
    ] )

let run () =
  let graph = Pstm_gen.Datasets.load Pstm_gen.Datasets.tiny in
  let config = cluster ~nodes:2 ~workers:4 in
  let start = (khop_starts graph ~seed:11 ~n:1).(0) in
  let drop_rates = [ 0.0; 0.01; 0.05; 0.1; 0.2 ] in
  let rows = ref [] in
  let last_report = ref None in
  List.iter
    (fun drop ->
      let spec = { Faults.none with Faults.drop } in
      let report, row =
        scenario ~label:(Printf.sprintf "drop %.0f%%" (100.0 *. drop)) ~spec graph ~config
          ~start
      in
      last_report := Some report;
      rows := row :: !rows)
    drop_rates;
  (* Everything at once: lossy, duplicating, spiky network plus a 3x
     straggler node. *)
  let combined =
    {
      Faults.none with
      Faults.drop = 0.05;
      duplicate = 0.05;
      delay_prob = 0.1;
      delay = Pstm_sim.Sim_time.us 300;
      slow_nodes = [ (1, 3.0) ];
    }
  in
  let report, row = scenario ~label:"combined" ~spec:combined graph ~config ~start in
  rows := row :: !rows;
  print_table ~title:"Fault sweep: 2-hop on tiny (2 nodes x 4 workers, sanitizer on)"
    ~headers:
      [ "scenario"; "completed"; "latency (ms)"; "packets"; "drops"; "dups"; "delays";
        "retx"; "dedup"; "abandoned" ]
    (List.rev !rows);
  record_report ~label:"faults-combined" report;
  (* Same-seed determinism, asserted here too so the bench itself fails
     loudly if the fault plane regresses. *)
  let repeat () =
    let _, row = scenario ~label:"combined" ~spec:combined graph ~config ~start in
    row
  in
  if repeat () <> repeat () then failwith "fault sweep is not deterministic in the seed";
  match !last_report with
  | Some r when not (Engine.all_completed r) ->
    failwith "fault sweep: a query failed to complete despite reliable delivery"
  | _ -> ()
