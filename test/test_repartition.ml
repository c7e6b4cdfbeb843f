(* Adaptive repartitioning: refinement unit tests, and the engine's
   online migration protocol under the runtime sanitizer — weight
   conservation and memo emptiness must hold through mid-query vertex
   migration with and without frontier batching (both settings share
   one forward / stash gate), answers must match the oracle, causal
   attribution must stay exact, and the machinery must be fully inert
   when the strategy is static. *)

open Pstm_engine
open Pstm_query

(* --- Refinement (pure table manipulation) --- *)

(* Three vertex pairs exchanging all the traffic, split across the two
   partitions: with room to grow, refinement co-locates every pair. *)
let pairs_profile = [| (0, 1, 100); (2, 3, 100); (4, 5, 100) |]
let pairs_assignment () = [| 0; 1; 0; 1; 0; 1 |]

let test_refine_colocates () =
  let moves, stats =
    Repartition.refine ~max_imbalance:2.0 ~n_parts:2 ~assignment:(pairs_assignment ())
      pairs_profile
  in
  Alcotest.(check int) "cut before" 300 stats.Repartition.cut_before;
  Alcotest.(check int) "cut eliminated" 0 stats.Repartition.cut_after;
  Alcotest.(check int) "total weight" 300 stats.Repartition.total_weight;
  let refined = pairs_assignment () in
  List.iter (fun m -> refined.(m.Repartition.vertex) <- m.Repartition.dst) moves;
  Array.iter
    (fun (u, v, _) ->
      Alcotest.(check int) "pair co-located" refined.(u) refined.(v))
    pairs_profile;
  Alcotest.(check int) "recomputed cut agrees" stats.Repartition.cut_after
    (Repartition.cut_weight ~assignment:refined pairs_profile);
  (* The input table is not mutated. *)
  Alcotest.(check bool) "input untouched" true (pairs_assignment () = [| 0; 1; 0; 1; 0; 1 |])

let test_refine_deterministic () =
  let run () =
    Repartition.refine ~max_imbalance:2.0 ~n_parts:2 ~assignment:(pairs_assignment ())
      pairs_profile
  in
  Alcotest.(check bool) "identical output" true (run () = run ())

let test_refine_size_cap () =
  (* At max_imbalance 1.0 both partitions already sit at the cap, so the
     greedy pass has nowhere to put anything. *)
  let moves, stats =
    Repartition.refine ~max_imbalance:1.0 ~n_parts:2 ~assignment:(pairs_assignment ())
      pairs_profile
  in
  Alcotest.(check int) "no moves" 0 (List.length moves);
  Alcotest.(check int) "cut unchanged" stats.Repartition.cut_before stats.Repartition.cut_after;
  Alcotest.(check (float 0.0)) "balance kept" stats.Repartition.imbalance_before
    stats.Repartition.imbalance_after

let test_refine_max_moves () =
  let moves, stats =
    Repartition.refine ~max_imbalance:2.0 ~max_moves:1 ~n_parts:2
      ~assignment:(pairs_assignment ()) pairs_profile
  in
  Alcotest.(check int) "one move" 1 (List.length moves);
  Alcotest.(check int) "stats agree" 1 stats.Repartition.moves

let test_refine_heat_cap () =
  (* A star: every leaf wants to join the hub's partition. Without a heat
     cap they all pile on (cut -> 0); with the cap at 1.0 the hub's
     partition is already too hot to accept anyone. *)
  let star = Array.init 7 (fun i -> (0, i + 1, 10)) in
  let assignment () = Array.init 8 (fun v -> v mod 4) in
  let _, unconstrained =
    Repartition.refine ~max_imbalance:4.0 ~n_parts:4 ~assignment:(assignment ()) star
  in
  Alcotest.(check int) "without cap the star collapses" 0 unconstrained.Repartition.cut_after;
  let moves, capped =
    Repartition.refine ~max_imbalance:4.0 ~max_heat_imbalance:1.0 ~n_parts:4
      ~assignment:(assignment ()) star
  in
  Alcotest.(check int) "heat cap blocks the pile-on" 0 (List.length moves);
  Alcotest.(check int) "cut unchanged" capped.Repartition.cut_before capped.Repartition.cut_after

(* --- Engine: online migration --- *)

let show_rows rows =
  Fmt.str "%a"
    (Fmt.list ~sep:(Fmt.any "@.") (Fmt.array ~sep:(Fmt.any "|") Value.pp))
    (Engine.sorted_rows rows)

let khop graph ~start ~hops =
  Compile.compile ~name:"khop" graph
    Dsl.(v_lookup ~key:"id" (int start) |> repeat ~dir:Graph.Out ~times:hops () |> count |> build)

let migration_cluster = { Cluster.default_config with Cluster.n_nodes = 2; workers_per_node = 4 }

(* Aggressive knobs so rounds fire mid-query on a tiny workload. *)
let aggressive_adaptive =
  {
    Async_engine.default_options with
    Async_engine.partition = Partition.Adaptive;
    adaptive =
      { Async_engine.refine_interval = Sim_time.us 5; min_traffic = 16 };
  }

(* Repeated waves over a few start vertices: migration happens during the
   early waves, later waves traverse the migrated graph. *)
let wave_submissions graph ~starts ~waves ~hops =
  let n = Array.length starts in
  Array.init (waves * n) (fun i ->
      let at = Sim_time.us (i * 10) in
      Engine.submit ~at (khop graph ~start:starts.(i mod n) ~hops))

let run_adaptive ?(check = false) ?(batched = false) ?(obs = Pstm_obs.Recorder.disabled)
    ?(options = aggressive_adaptive) graph subs =
  Async_engine.run ~options
    ~common:{ Engine.Common.default with Engine.Common.check; batched; obs }
    ~cluster_config:migration_cluster ~channel_config:Channel.default_config ~graph subs

(* Traversers raced a migration: the shared gate forwarded or parked some. *)
let check_gate_engaged m =
  Alcotest.(check bool) "forwards or stashes" true
    (Metrics.(get m Counter.forwarded + get m Counter.stashed) > 0)

let test_migration_sanitized ~batched () =
  let graph = Pstm_gen.Datasets.load Pstm_gen.Datasets.tiny in
  let starts = [| 1; 2; 3; 5 |] in
  let subs = wave_submissions graph ~starts ~waves:4 ~hops:2 in
  (* check:true turns on per-exec weight conservation, tracker overshoot
     detection, query termination and memo emptiness — a migration that
     loses a traverser, double-delivers, or orphans a memo entry raises
     Check_violation here. *)
  let report = run_adaptive ~check:true ~batched graph subs in
  Alcotest.(check bool) "all queries complete" true (Engine.all_completed report);
  let m = report.Engine.metrics in
  Alcotest.(check bool) "migrations happened" true (Metrics.(get m Counter.migrations) > 0);
  Alcotest.(check bool) "memo entries re-homed" true (Metrics.(get m Counter.migrated_entries) > 0);
  check_gate_engaged m;
  (* Every wave of the same start answers exactly what the oracle says,
     before and after its start vertex moved. *)
  Array.iteri
    (fun i (q : Engine.query_report) ->
      let expected =
        show_rows
          (Local_engine.run graph (khop graph ~start:starts.(i mod Array.length starts) ~hops:2))
      in
      Alcotest.(check string) "rows match oracle" expected (show_rows q.Engine.rows))
    report.Engine.queries

let test_migration_deterministic ~batched () =
  let graph = Pstm_gen.Datasets.load Pstm_gen.Datasets.tiny in
  let subs = wave_submissions graph ~starts:[| 1; 2; 3; 5 |] ~waves:3 ~hops:2 in
  let fingerprint () =
    let r = run_adaptive ~check:true ~batched graph subs in
    check_gate_engaged r.Engine.metrics;
    let m = r.Engine.metrics in
    ( Array.map Engine.latency_ms r.Engine.queries,
      Fmt.str "%a" (Fmt.list ~sep:(Fmt.any ";") Fmt.string)
        (Array.to_list (Array.map (fun q -> show_rows q.Engine.rows) r.Engine.queries)),
      ( Metrics.(get m Counter.migrations),
        Metrics.(get m Counter.migrated_entries),
        Metrics.(get m Counter.forwarded),
        Metrics.(get m Counter.stashed),
        Metrics.message_bytes m Metrics.Traverser_msg ) )
  in
  Alcotest.(check bool) "same seed, same run" true (fingerprint () = fingerprint ())

(* Forwarded and parked traversers keep their causal chains: with
   tracing on, every query's critical path still partitions its latency
   exactly. *)
let test_migration_causal_exact () =
  let graph = Pstm_gen.Datasets.load Pstm_gen.Datasets.tiny in
  let subs = wave_submissions graph ~starts:[| 1; 2; 3; 5 |] ~waves:4 ~hops:2 in
  let obs = Pstm_obs.Recorder.create ~causal:true () in
  let report = run_adaptive ~check:true ~obs graph subs in
  check_gate_engaged report.Engine.metrics;
  let causal = Pstm_obs.Recorder.causal obs in
  Array.iter
    (fun (q : Engine.query_report) ->
      match (Pstm_obs.Causal.attribution causal ~qid:q.Engine.qid, Engine.latency q) with
      | Some attr, Some latency ->
        Alcotest.(check int)
          (Fmt.str "query %d: segments partition the latency exactly" q.Engine.qid)
          (Sim_time.to_ns latency)
          (Sim_time.to_ns (Pstm_obs.Causal.attribution_total attr))
      | _ -> Alcotest.failf "query %d: no complete causal path" q.Engine.qid)
    report.Engine.queries

let test_static_strategy_inert () =
  (* With a static strategy the adaptive knobs must be dead weight: the
     run is bit-for-bit the seed behavior, and no migration happens. *)
  let graph = Pstm_gen.Datasets.load Pstm_gen.Datasets.tiny in
  let subs = wave_submissions graph ~starts:[| 1; 2; 3 |] ~waves:2 ~hops:2 in
  let fingerprint options =
    let r =
      Async_engine.run ~options ~cluster_config:migration_cluster
        ~channel_config:Channel.default_config ~graph subs
    in
    let m = r.Engine.metrics in
    Alcotest.(check int) "no migrations" 0 Metrics.(get m Counter.migrations);
    Alcotest.(check int) "no forwards" 0 Metrics.(get m Counter.forwarded);
    ( Array.map Engine.latency_ms r.Engine.queries,
      Array.map (fun (q : Engine.query_report) -> show_rows q.Engine.rows) r.Engine.queries,
      Metrics.message_bytes m Metrics.Traverser_msg )
  in
  let hash_aggressive =
    { aggressive_adaptive with Async_engine.partition = Partition.Hash }
  in
  Alcotest.(check bool) "hash run ignores adaptive knobs" true
    (fingerprint Async_engine.default_options = fingerprint hash_aggressive)

let test_warm_start_assignment () =
  (* A warm start installs the refined table up front as a fixed table:
     there are no migrations, yet the remote traffic drops relative to
     hash on the same submissions. *)
  let graph = Pstm_gen.Datasets.load Pstm_gen.Datasets.tiny in
  let subs = wave_submissions graph ~starts:[| 1; 2; 3; 5 |] ~waves:3 ~hops:2 in
  let n_parts = migration_cluster.Cluster.n_nodes * migration_cluster.Cluster.workers_per_node in
  let obs = Pstm_obs.Recorder.create () in
  let hash =
    Async_engine.run
      ~common:(Engine.Common.with_obs obs Engine.Common.default)
      ~cluster_config:migration_cluster ~channel_config:Channel.default_config ~graph subs
  in
  let profile = Pstm_obs.Traffic.edges (Pstm_obs.Recorder.traffic obs) in
  Alcotest.(check bool) "profile is non-empty" true (Array.length profile > 0);
  let { Repartition.table = refined; _ } =
    Repartition.refine_profile ~max_imbalance:1.1 ~max_heat_imbalance:1.5
      (Partition.create ~strategy:Partition.Hash ~n_parts ~n_vertices:(Graph.n_vertices graph) ())
      profile
  in
  let warm =
    run_adaptive ~check:true
      ~options:
        { Async_engine.default_options with Async_engine.partition = Partition.Table refined }
      graph subs
  in
  Alcotest.(check bool) "all complete" true (Engine.all_completed warm);
  Alcotest.(check int) "no online rounds" 0
    Metrics.(get warm.Engine.metrics Counter.migrations);
  let bytes r = Metrics.message_bytes r.Engine.metrics Metrics.Traverser_msg in
  Alcotest.(check bool) "remote traffic reduced" true (bytes warm < bytes hash)

let () =
  Alcotest.run "repartition"
    [
      ( "refine",
        [
          Alcotest.test_case "co-locates pairs" `Quick test_refine_colocates;
          Alcotest.test_case "deterministic" `Quick test_refine_deterministic;
          Alcotest.test_case "size cap" `Quick test_refine_size_cap;
          Alcotest.test_case "max moves" `Quick test_refine_max_moves;
          Alcotest.test_case "heat cap" `Quick test_refine_heat_cap;
        ] );
      ( "migration",
        [
          Alcotest.test_case "sanitized mid-query migration" `Quick
            (test_migration_sanitized ~batched:false);
          Alcotest.test_case "sanitized mid-query migration, batched" `Quick
            (test_migration_sanitized ~batched:true);
          Alcotest.test_case "deterministic" `Quick (test_migration_deterministic ~batched:false);
          Alcotest.test_case "deterministic, batched" `Quick
            (test_migration_deterministic ~batched:true);
          Alcotest.test_case "causal attribution exact" `Quick test_migration_causal_exact;
          Alcotest.test_case "static strategy inert" `Quick test_static_strategy_inert;
          Alcotest.test_case "warm start" `Quick test_warm_start_assignment;
        ] );
    ]
