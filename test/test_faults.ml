(* Chaos suite for the fault-injection plane (Faults + reliable channel +
   engine recovery):

   - same-seed fault schedules replay byte-identically (rows, latencies,
     event counts, every fault counter);
   - under drop/duplicate/delay faults every registry engine still
     matches the reference oracle's rows for completed queries;
   - the runtime sanitizer stays clean across the whole fault matrix;
   - a partition paused past the deadline degrades to TIMEOUT without
     wedging the tracker or leaking memo entries;
   - recovery machinery actually engages (retransmits under drop, dedup
     discards under duplication). *)

open Pstm_engine
open Pstm_query

let small_cluster = { Cluster.default_config with Cluster.n_nodes = 3; workers_per_node = 3 }

let fixture_graph () = Pstm_gen.Datasets.load Pstm_gen.Datasets.tiny

let khop_program graph hops =
  Compile.compile ~name:"khop" graph
    Dsl.(
      v_lookup ~key:"id" (int 1) |> repeat ~dir:Graph.Out ~times:hops () |> count |> build)

let show_rows rows =
  Fmt.str "%a"
    (Fmt.list ~sep:(Fmt.any "@.") (Fmt.array ~sep:(Fmt.any "|") Value.pp))
    (Engine.sorted_rows rows)

let common_with ?deadline spec =
  {
    Engine.Common.default with
    Engine.Common.check = true;
    faults = Some spec;
    deadline;
  }

let run_async ?deadline spec graph program =
  Async_engine.run
    ~common:(common_with ?deadline spec)
    ~cluster_config:small_cluster ~channel_config:Channel.default_config ~graph
    [| Engine.submit program |]

(* The fault matrix every scenario test walks. *)
let scenarios =
  [
    ("drop", { Faults.none with Faults.drop = 0.1 });
    ("duplicate", { Faults.none with Faults.duplicate = 0.15 });
    ("delay", { Faults.none with Faults.delay_prob = 0.3; delay = Sim_time.us 150 });
    ("straggler", { Faults.none with Faults.slow_nodes = [ (1, 3.0) ] });
    ( "pause",
      {
        Faults.none with
        Faults.pauses = [ Faults.pause ~node:2 ~from_:(Sim_time.us 5) ~until:(Sim_time.us 400) ];
      } );
    ( "combined",
      {
        Faults.none with
        Faults.seed = 0xC0DE;
        drop = 0.08;
        duplicate = 0.08;
        delay_prob = 0.1;
        delay = Sim_time.us 250;
        slow_nodes = [ (0, 2.0) ];
        pauses = [ Faults.pause ~node:1 ~from_:(Sim_time.us 10) ~until:(Sim_time.us 200) ];
      } );
  ]

(* One comparable fingerprint of everything a run produced. *)
let fingerprint (r : Engine.report) =
  let m = r.Engine.metrics in
  Fmt.str "%s|makespan=%d|events=%d|%a|rows=%s|faults=%d/%d/%d/%d/%d/%d/%d"
    r.Engine.engine
    (Sim_time.to_ns r.Engine.makespan)
    r.Engine.events
    (Fmt.array ~sep:(Fmt.any ",") (fun ppf (q : Engine.query_report) ->
         Fmt.pf ppf "%d:%s" q.Engine.qid
           (match Engine.completed_at q with None -> "T" | Some c -> string_of_int (Sim_time.to_ns c))))
    r.Engine.queries
    (show_rows r.Engine.queries.(0).Engine.rows)
    Metrics.(get m Counter.fault_drops) Metrics.(get m Counter.fault_dups)
    Metrics.(get m Counter.fault_delays) Metrics.(get m Counter.retransmits)
    Metrics.(get m Counter.dup_dropped) Metrics.(get m Counter.acks)
    Metrics.(get m Counter.abandoned)

let test_same_seed_byte_identical () =
  let graph = fixture_graph () in
  let program = khop_program graph 3 in
  List.iter
    (fun (name, spec) ->
      let a = fingerprint (run_async spec graph program) in
      let b = fingerprint (run_async spec graph program) in
      Alcotest.(check string) (name ^ " replays byte-identically") a b)
    scenarios

let test_different_seed_diverges () =
  (* Sanity check on the harness itself: a different fault seed gives a
     different schedule (otherwise the determinism test proves nothing). *)
  let graph = fixture_graph () in
  let program = khop_program graph 3 in
  let spec seed = { Faults.none with Faults.drop = 0.15; seed } in
  let a = fingerprint (run_async (spec 1) graph program) in
  let b = fingerprint (run_async (spec 2) graph program) in
  Alcotest.(check bool) "different seeds diverge" true (a <> b)

let test_registry_engines_match_oracle () =
  let graph = fixture_graph () in
  let program = khop_program graph 2 in
  let expected = show_rows (Local_engine.run graph program) in
  let registry = Registry.make ~cluster_config:small_cluster () in
  List.iter
    (fun (scenario_name, spec) ->
      List.iter
        (fun (engine_name, (module E : Engine.S)) ->
          let report =
            E.run ~common:(common_with spec) ~graph [| Engine.submit program |]
          in
          let q = report.Engine.queries.(0) in
          match Engine.completed_at q with
          | None ->
            Alcotest.failf "%s under %s faults did not complete" engine_name scenario_name
          | Some _ ->
            Alcotest.(check string)
              (Fmt.str "%s under %s faults matches the oracle" engine_name scenario_name)
              expected (show_rows q.Engine.rows))
        registry)
    scenarios

let test_sanitizer_clean_under_faults () =
  let graph = fixture_graph () in
  let program = khop_program graph 3 in
  List.iter
    (fun (name, spec) ->
      match run_async spec graph program with
      | report ->
        Alcotest.(check bool) (name ^ " completes") true (Engine.all_completed report)
      | exception Engine.Check_violation message ->
        Alcotest.failf "sanitizer violation under %s faults: %s" name message)
    scenarios

let test_pause_past_deadline_degrades () =
  let graph = fixture_graph () in
  let program = khop_program graph 3 in
  (* Node 0 hosts the coordinator and sleeps through the whole deadline
     window: the query cannot finish, and must degrade cleanly (TIMEOUT,
     sanitizer quiet, memos reclaimed) instead of wedging. *)
  let spec =
    {
      Faults.none with
      Faults.pauses = [ Faults.pause ~node:0 ~from_:Sim_time.zero ~until:(Sim_time.ms 50) ];
    }
  in
  match run_async ~deadline:(Sim_time.ms 1) spec graph program with
  | report ->
    Alcotest.(check bool) "timed out" false (Engine.all_completed report);
    Alcotest.(check bool) "latency reported as infinite" true
      (Engine.latency_ms report.Engine.queries.(0) = Float.infinity)
  | exception Engine.Check_violation message ->
    Alcotest.failf "sanitizer violation on paused partition: %s" message

let test_recovery_engages () =
  let graph = fixture_graph () in
  let program = khop_program graph 3 in
  let dropped = run_async { Faults.none with Faults.drop = 0.2 } graph program in
  let dm = dropped.Engine.metrics in
  Alcotest.(check bool) "drops were injected" true (Metrics.(get dm Counter.fault_drops) > 0);
  Alcotest.(check bool) "retransmits recovered the drops" true
    (Metrics.(get dm Counter.retransmits) > 0);
  Alcotest.(check bool) "acks flowed" true (Metrics.(get dm Counter.acks) > 0);
  let duplicated = run_async { Faults.none with Faults.duplicate = 0.3 } graph program in
  let um = duplicated.Engine.metrics in
  Alcotest.(check bool) "duplicates were injected" true (Metrics.(get um Counter.fault_dups) > 0);
  Alcotest.(check bool) "dedup window discarded the copies" true
    (Metrics.(get um Counter.dup_dropped) > 0)

let test_zero_rate_spec_still_exact () =
  (* A fault plane with all-zero rates exercises the reliable channel
     (sequence numbers, acks) without injecting anything; results must
     still be exact and nothing may be counted as a fault. *)
  let graph = fixture_graph () in
  let program = khop_program graph 2 in
  let report = run_async Faults.none graph program in
  let expected = show_rows (Local_engine.run graph program) in
  Alcotest.(check string) "rows exact" expected
    (show_rows report.Engine.queries.(0).Engine.rows);
  let m = report.Engine.metrics in
  Alcotest.(check int) "no drops" 0 Metrics.(get m Counter.fault_drops);
  Alcotest.(check int) "no dups" 0 Metrics.(get m Counter.fault_dups);
  Alcotest.(check int) "no retransmits" 0 Metrics.(get m Counter.retransmits);
  Alcotest.(check bool) "acks still flow" true (Metrics.(get m Counter.acks) > 0)

let test_mixed_ldbc_run_survives_faults () =
  (* The LDBC driver path with a fault plane threaded through [common]:
     the run must finish without sanitizer violations and keep reporting
     sane aggregate numbers. *)
  let data = Pstm_ldbc.Snb_gen.load Pstm_ldbc.Snb_gen.snb_tiny in
  let spec = { Faults.none with Faults.drop = 0.02; duplicate = 0.02 } in
  let common = { Engine.Common.default with Engine.Common.check = true; faults = Some spec } in
  let result =
    Pstm_ldbc.Driver.run_mixed_async ~common ~cluster_config:small_cluster
      ~duration:(Sim_time.ms 20) ~tcr:1.0 ~seed:42 data
  in
  Alcotest.(check bool) "issued some queries" true (result.Pstm_ldbc.Driver.issued > 0);
  Alcotest.(check bool) "completed within issued" true
    (result.Pstm_ldbc.Driver.completed <= result.Pstm_ldbc.Driver.issued)

let () =
  Alcotest.run "faults"
    [
      ( "determinism",
        [
          Alcotest.test_case "same seed byte-identical" `Quick test_same_seed_byte_identical;
          Alcotest.test_case "different seed diverges" `Quick test_different_seed_diverges;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "registry engines match oracle" `Quick
            test_registry_engines_match_oracle;
          Alcotest.test_case "sanitizer clean under faults" `Quick
            test_sanitizer_clean_under_faults;
          Alcotest.test_case "pause past deadline degrades" `Quick
            test_pause_past_deadline_degrades;
          Alcotest.test_case "recovery engages" `Quick test_recovery_engages;
          Alcotest.test_case "zero-rate spec still exact" `Quick test_zero_rate_spec_still_exact;
          Alcotest.test_case "mixed ldbc run survives faults" `Quick
            test_mixed_ldbc_run_survives_faults;
        ] );
    ]
