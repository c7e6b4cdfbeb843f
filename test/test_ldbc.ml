(* LDBC query correctness: every IC and IS query must produce the same
   result on the reference interpreter, the asynchronous engine (with
   and without frontier batching) and the BSP engine (row multisets;
   emission order is engine-specific). *)

open Pstm_engine
open Pstm_ldbc

let data = lazy (Snb_gen.load Snb_gen.snb_tiny)

let cluster_config = { Cluster.default_config with Cluster.n_nodes = 4; workers_per_node = 4 }

let show_rows rows =
  Fmt.str "%a" (Fmt.list ~sep:(Fmt.any "@.") (Fmt.array ~sep:(Fmt.any "|") Value.pp))
    (Engine.sorted_rows rows)

let check_query name make () =
  let data = Lazy.force data in
  let prng = Prng.create 77 in
  let program = make data prng in
  let expected = show_rows (Local_engine.run data.Snb_gen.graph program) in
  List.iter
    (fun batched ->
      let label = Fmt.str "%s async (batched=%b)" name batched in
      let async_report =
        Async_engine.run
          ~common:(Engine.Common.with_batched batched Engine.Common.default)
          ~cluster_config ~channel_config:Channel.default_config ~graph:data.Snb_gen.graph
          [| Engine.submit program |]
      in
      Alcotest.(check bool) (label ^ " completed") true (Engine.all_completed async_report);
      Alcotest.(check string)
        (label ^ " rows")
        expected
        (show_rows async_report.Engine.queries.(0).Engine.rows);
      (* Every plan probes or updates a memo (index lookup, dedup, join,
         aggregate), and each executed group counts its memo operations. *)
      Alcotest.(check bool)
        (label ^ " memo ops counted")
        true
        (Metrics.(get async_report.Engine.metrics Counter.memo_ops) > 0))
    [ false; true ];
  let bsp_report =
    Bsp_engine.run ~cluster_config ~graph:data.Snb_gen.graph [| Engine.submit program |]
  in
  Alcotest.(check string)
    (name ^ " bsp rows")
    expected
    (show_rows bsp_report.Engine.queries.(0).Engine.rows)

let query_cases =
  List.map
    (fun (name, make) -> Alcotest.test_case name `Quick (check_query name make))
    (Ic_queries.all @ Is_queries.all)

(* --- Prepared queries --- *)

(* Every binding of a prepared query equals the full compile of the same
   query with the drawn values: the same steps, structurally (so the
   same literals in the same places), the same printed program, and a
   clean verifier report. Two seeds, 200 draws each, per IC and IS
   query; the draws and the bindings consume the same PRNG stream. *)
let check_bindings (q : Read_query.t) () =
  let data = Lazy.force data in
  let prepared = Read_query.prepare q data in
  let draw = q.Read_query.draw data in
  List.iter
    (fun seed ->
      let bound_prng = Prng.create seed and draw_prng = Prng.create seed in
      for i = 1 to 200 do
        let bound = prepared bound_prng in
        let full = Read_query.compile q data (draw draw_prng) in
        let label what = Fmt.str "%s seed %d draw %d: %s" q.Read_query.name seed i what in
        if Program.steps bound <> Program.steps full then Alcotest.fail (label "steps differ");
        Alcotest.(check string) (label "printed") (Fmt.str "%a" Program.pp full)
          (Fmt.str "%a" Program.pp bound);
        Alcotest.(check int) (label "registers") (Program.n_registers full) (Program.n_registers bound);
        Alcotest.(check (array int)) (label "entries") (Program.entries full) (Program.entries bound);
        if not (Pstm_analysis.Verify.is_clean (Pstm_analysis.Verify.check_program bound)) then
          Alcotest.fail (label "verifier findings")
      done)
    [ 11; 2027 ]

let binding_cases =
  List.map
    (fun (q : Read_query.t) -> Alcotest.test_case q.Read_query.name `Quick (check_bindings q))
    (Ic_queries.queries @ Is_queries.queries)

let test_dataset_shape () =
  let d = Lazy.force data in
  Alcotest.(check bool) "has persons" true (Array.length d.Snb_gen.persons = 200);
  Alcotest.(check bool) "has posts" true (Array.length d.Snb_gen.posts > 0);
  Alcotest.(check bool) "has comments" true (Array.length d.Snb_gen.comments > 0);
  Alcotest.(check bool) "has edges" true (Graph.n_edges d.Snb_gen.graph > 1000)

(* --- Driver --- *)

let test_schedule_shape () =
  let data = Lazy.force data in
  let duration = Sim_time.ms 40 in
  let subs = Driver.schedule data ~tcr:1.0 ~duration ~seed:5 in
  Alcotest.(check bool) "nonempty" true (Array.length subs > 0);
  (* Sorted by arrival, all within the window. *)
  let sorted = ref true and in_window = ref true in
  Array.iteri
    (fun i (s : Engine.submission) ->
      if i > 0 && Sim_time.compare subs.(i - 1).Engine.at s.Engine.at > 0 then sorted := false;
      if s.Engine.at < 0 || s.Engine.at >= Sim_time.to_ns duration then in_window := false)
    subs;
  Alcotest.(check bool) "sorted by arrival" true !sorted;
  Alcotest.(check bool) "inside the window" true !in_window;
  (* Short reads are issued more often than complex reads (LDBC mix). *)
  let count prefix =
    Array.fold_left
      (fun n (s : Engine.submission) ->
        if String.length (Program.name s.Engine.program) >= 2
           && String.sub (Program.name s.Engine.program) 0 2 = prefix
        then n + 1
        else n)
      0 subs
  in
  Alcotest.(check bool) "IS more frequent than IC" true (count "IS" > count "IC")

(* Allocation guard for the schedule: each query is prepared once per
   call, and a submission costs its parameter draw and one binding.
   Bound 150 words per submission (snb_tiny, TCR 0.03, 1 s of issuance,
   about 38 000 submissions, the 22 template compiles included); 89 on
   the benchmark's dataset, about 2 700 when every submission ran the
   whole compiler. *)
let test_schedule_allocation () =
  let data = Lazy.force data in
  Gc.minor ();
  let before = Gc.minor_words () in
  let subs = Driver.schedule data ~tcr:0.03 ~duration:(Sim_time.ms 1_000) ~seed:1 in
  let per_sub = (Gc.minor_words () -. before) /. float_of_int (Array.length subs) in
  if per_sub > 150.0 then
    Alcotest.failf "schedule: %.1f words per submission (bound 150)" per_sub

let test_schedule_deterministic () =
  let data = Lazy.force data in
  let once () =
    Array.map
      (fun (s : Engine.submission) -> (Program.name s.Engine.program, s.Engine.at))
      (Driver.schedule data ~tcr:1.0 ~duration:(Sim_time.ms 30) ~seed:9)
  in
  Alcotest.(check bool) "same seed, same schedule" true (once () = once ())

let test_mixed_run_small () =
  let data = Lazy.force data in
  let result =
    Driver.run_mixed_async ~cluster_config ~duration:(Sim_time.ms 30) ~tcr:2.0 ~seed:3 data
  in
  Alcotest.(check bool) "kept up at light load" true result.Driver.kept_up;
  Alcotest.(check int) "everything completed" result.Driver.issued result.Driver.completed;
  Alcotest.(check bool) "per-query stats exist" true (List.length result.Driver.per_query > 5);
  List.iter
    (fun (_, (s : Stats.summary)) ->
      Alcotest.(check bool) "latencies positive" true (s.Stats.mean >= 0.0))
    result.Driver.per_query

let test_throughput_helpers () =
  let data = Lazy.force data in
  let run subs =
    Pstm_engine.Async_engine.run ~cluster_config ~channel_config:Channel.default_config
      ~graph:data.Snb_gen.graph subs
  in
  let lat = Driver.sequential_latency ~run ~make:Ic_queries.ic2 ~repeats:2 ~seed:4 data in
  Alcotest.(check bool) "latency positive" true (lat > 0.0);
  let qps = Driver.max_throughput ~run ~make:Ic_queries.ic2 ~streams:4 ~seed:4 data in
  Alcotest.(check bool) "throughput positive" true (qps > 0.0)

let test_update_driver () =
  let data = Lazy.force data in
  let r = Driver.run_updates ~duration:(Sim_time.ms 20) ~tcr:1.0 ~seed:6 data in
  Alcotest.(check bool) "some updates ran" true (r.Driver.committed > 0);
  List.iter
    (fun (_, (s : Stats.summary)) ->
      Alcotest.(check bool) "update latency positive" true (s.Stats.mean > 0.0))
    r.Driver.per_kind

(* The update stream pinned at a fixed seed, duration and TCR: the kind
   sequence depends on how many PRNG draws each update consumes, so any
   change to that count moves these numbers. Every update commits, and
   each kind is priced exactly at its closed-form latency. *)
let test_update_stream_pinned () =
  let data = Lazy.force data in
  let r = Driver.run_updates ~duration:(Sim_time.ms 200) ~tcr:0.1 ~seed:17 data in
  Alcotest.(check int) "committed" 525 r.Driver.committed;
  Alcotest.(check int) "aborted" 0 r.Driver.aborted;
  Alcotest.(check (list (pair string int)))
    "per-kind counts"
    [
      ("UP-person", 68);
      ("UP-friendship", 88);
      ("UP-forum", 75);
      ("UP-membership", 79);
      ("UP-post", 70);
      ("UP-comment", 70);
      ("UP-like", 75);
    ]
    (List.map (fun (name, (s : Stats.summary)) -> (name, s.Stats.count)) r.Driver.per_kind);
  List.iter2
    (fun kind (name, (s : Stats.summary)) ->
      let priced = Sim_time.to_ms (Updates.simulated_latency Netmodel.default Cluster.default_costs kind) in
      Alcotest.(check string) "kind order" (Updates.kind_name kind) name;
      Alcotest.(check (float 0.0)) (name ^ " min") priced s.Stats.min;
      Alcotest.(check (float 0.0)) (name ^ " max") priced s.Stats.max;
      Alcotest.(check (float 1e-12)) (name ^ " mean") priced s.Stats.mean)
    Updates.all_kinds r.Driver.per_kind

let () =
  Alcotest.run "ldbc"
    [
      ("dataset", [ Alcotest.test_case "shape" `Quick test_dataset_shape ]);
      ("queries", query_cases);
      ("bindings", binding_cases);
      ( "driver",
        [
          Alcotest.test_case "schedule shape" `Quick test_schedule_shape;
          Alcotest.test_case "schedule deterministic" `Quick test_schedule_deterministic;
          Alcotest.test_case "schedule allocation" `Quick test_schedule_allocation;
          Alcotest.test_case "mixed run" `Quick test_mixed_run_small;
          Alcotest.test_case "latency/throughput helpers" `Quick test_throughput_helpers;
          Alcotest.test_case "updates" `Quick test_update_driver;
          Alcotest.test_case "update stream pinned" `Quick test_update_stream_pinned;
        ] );
    ]
