(* Adaptive repartitioning sweep (DESIGN.md "Adaptive repartitioning").

   Hash — the paper's H — spreads hubs but ignores traversal locality:
   on a power-law graph nearly every expansion crosses partitions. This
   sweep profiles the actual cross-partition traversal traffic of a
   k-hop workload, refines the owner table with the greedy
   label-propagation pass of [Repartition], and contrasts three
   strategies on the same submissions:

   - static Hash and Mod baselines;
   - Adaptive (cold): starts from the hash-mixed owner table and
     migrates vertices online, mid-workload, through the engine's
     costed migration protocol;
   - warm: the refinement computed offline on the profiled Hash run,
     installed as a fixed [Partition.Table] — the steady state an online
     system reaches after enough rounds.

   Reported per config: cross-partition traverser bytes (the metric the
   refiner minimizes), p50/p99 latency, and migration counters. The
   refinement's own cut/imbalance accounting is printed alongside. *)

open Pstm_engine
open Harness

(* A smaller cluster than the paper testbed: 128 partitions over a
   ~30 K-vertex stand-in leaves < 300 vertices per partition, so even a
   perfect refinement keeps most edges remote. 4x8 matches the scale at
   which partition locality is measurable on the shrunken graphs. *)
let repart_cluster = cluster ~nodes:2 ~workers:8

(* The workload repeats the same start set in waves: the cold adaptive
   run migrates during the early waves and the later waves harvest the
   locality. *)
let submissions graph ~seed ~n_starts ~hops ~waves ~spacing_us =
  let starts = khop_starts graph ~seed ~n:n_starts in
  Array.init (waves * n_starts) (fun i ->
      let wave = i / n_starts and slot = i mod n_starts in
      let at = Sim_time.us ((wave * n_starts * spacing_us) + (slot * spacing_us)) in
      Engine.submit ~at (khop_program graph ~start:starts.(slot) ~hops))

let p50_latency_ms (r : Engine.report) =
  Stats.percentile (Array.map Engine.latency_ms r.Engine.queries) 50.0

let remote_trav_bytes (r : Engine.report) =
  Metrics.message_bytes r.Engine.metrics Metrics.Traverser_msg

let row ~label ~baseline report =
  let bytes = remote_trav_bytes report in
  let reduction =
    match baseline with
    | None -> "-"
    | Some base -> pct (100.0 *. (1.0 -. (fi bytes /. Float.max (fi base) 1.0)))
  in
  let m = report.Engine.metrics in
  [
    label;
    ms (p50_latency_ms report);
    ms (Engine.p99_latency_ms report);
    string_of_int bytes;
    reduction;
    string_of_int Metrics.(get m Counter.migrations);
    string_of_int Metrics.(get m Counter.forwarded);
  ]

let run_dataset ~name dataset =
  let graph = Pstm_gen.Datasets.load dataset in
  let subs = submissions graph ~seed:101 ~n_starts:8 ~hops:2 ~waves:12 ~spacing_us:12 in
  let n_parts =
    repart_cluster.Cluster.n_nodes * repart_cluster.Cluster.workers_per_node
  in
  let strategy partition = { Async_engine.default_options with Async_engine.partition } in
  (* Hash baseline, profiled: the recorder's traffic bag observes the
     remote dispatches without touching simulated time. *)
  let obs = Pstm_obs.Recorder.create () in
  let common = Engine.Common.with_obs obs Engine.Common.default in
  let hash =
    run_graphdance ~options:(strategy Partition.Hash) ~common ~config:repart_cluster graph subs
  in
  let mod_ =
    run_graphdance ~options:(strategy Partition.Mod) ~config:repart_cluster graph subs
  in
  (* Offline refinement of the profiled Hash run: the warm-start owner
     table, plus the cut numbers for the record. *)
  let { Repartition.table = refined; stats; _ } =
    Repartition.refine_profile ~max_imbalance:1.1 ~max_heat_imbalance:1.5
      (Partition.create ~strategy:Partition.Hash ~n_parts ~n_vertices:(Graph.n_vertices graph) ())
      (Pstm_obs.Traffic.edges (Pstm_obs.Recorder.traffic obs))
  in
  let warm =
    (* Warm start: the refined table installed up front as a fixed table —
       the steady state an online run converges to, without
       migration-protocol noise in the metrics. *)
    run_graphdance ~options:(strategy (Partition.Table refined)) ~config:repart_cluster graph subs
  in
  let cold =
    run_graphdance ~options:(strategy Partition.Adaptive) ~config:repart_cluster graph subs
  in
  let base = Some (remote_trav_bytes hash) in
  print_table
    ~title:(Printf.sprintf "Adaptive repartitioning: %s 2-hop waves (2 nodes x 8 workers)" name)
    ~headers:
      [ "Config"; "p50 (ms)"; "p99 (ms)"; "remote trav B"; "vs hash"; "migr"; "fwd" ]
    [
      row ~label:"hash (paper H)" ~baseline:None hash;
      row ~label:"modulo" ~baseline:base mod_;
      row ~label:"adaptive cold" ~baseline:base cold;
      row ~label:"adaptive warm" ~baseline:base warm;
    ];
  Printf.printf
    "  refinement: cut %d -> %d of %d profiled bytes (%.1f%% cut reduction), %d moves, imbalance %.2f -> %.2f\n"
    stats.Repartition.cut_before stats.Repartition.cut_after stats.Repartition.total_weight
    (100.0
    *. (1.0 -. (fi stats.Repartition.cut_after /. Float.max (fi stats.Repartition.cut_before) 1.0)
       ))
    stats.Repartition.moves stats.Repartition.imbalance_before stats.Repartition.imbalance_after;
  record_report ~label:(Printf.sprintf "repartition-%s-hash" name) hash;
  record_report ~label:(Printf.sprintf "repartition-%s-adaptive-warm" name) warm;
  record_report ~label:(Printf.sprintf "repartition-%s-adaptive-cold" name) cold

let run () =
  run_dataset ~name:"lj-like" Pstm_gen.Datasets.lj_like;
  run_dataset ~name:"fs-like" Pstm_gen.Datasets.fs_like

(* The @repartition-smoke alias: one small cold-adaptive run with the
   sanitizer on, exercising profile -> refine -> migrate end to end. *)
let smoke () =
  let graph = Pstm_gen.Datasets.load Pstm_gen.Datasets.tiny in
  let config = cluster ~nodes:2 ~workers:4 in
  let subs = submissions graph ~seed:11 ~n_starts:4 ~hops:2 ~waves:4 ~spacing_us:10 in
  let options =
    {
      Async_engine.default_options with
      Async_engine.partition = Partition.Adaptive;
      adaptive =
        { Async_engine.refine_interval = Sim_time.us 5; min_traffic = 16 };
    }
  in
  let common = { Engine.Common.default with Engine.Common.check = true } in
  let report = run_graphdance ~options ~common ~config graph subs in
  let m = report.Engine.metrics in
  print_table ~title:"Repartition smoke: cold adaptive 2-hop waves on tiny (sanitizer on)"
    ~headers:[ "queries"; "p99 (ms)"; "migrations"; "rehomed"; "forwarded"; "stashed" ]
    [
      [
        string_of_int (Array.length report.Engine.queries);
        ms (Engine.p99_latency_ms report);
        string_of_int Metrics.(get m Counter.migrations);
        string_of_int Metrics.(get m Counter.migrated_entries);
        string_of_int Metrics.(get m Counter.forwarded);
        string_of_int Metrics.(get m Counter.stashed);
      ];
    ];
  record_report ~label:"repartition-smoke" report
