(* Frontier-batched execution:

   - the batched async engine matches the reference oracle's rows on
     random graphs and queries, with the runtime sanitizer on (which
     asserts Theorem-1 conservation per batch);
   - batched runs survive the whole fault matrix and still agree with
     the oracle;
   - batch metrics are populated when batching is on and exactly zero
     when it is off (traversers then run one at a time through the same
     staged path, as groups of one). *)

open Pstm_engine
open Pstm_query

let qcheck = QCheck_alcotest.to_alcotest

(* --- Fixtures (same shapes as test_engines) --- *)

let graph_of ~n ~edges =
  let b = Builder.create () in
  for i = 0 to n - 1 do
    ignore
      (Builder.add_vertex b ~label:(if i mod 3 = 0 then "A" else "B")
         ~props:[ ("id", Value.Int i); ("weight", Value.Int ((i * 37) mod 100)) ]
         ())
  done;
  List.iter
    (fun (s, d, l) ->
      if s < n && d < n then
        ignore (Builder.add_edge b ~src:s ~label:(if l then "x" else "y") ~dst:d ()))
    edges;
  Builder.build b

let arb_graph =
  QCheck.make
    ~print:(fun (n, edges) -> Fmt.str "graph n=%d m=%d" n (List.length edges))
    QCheck.Gen.(
      let* n = int_range 4 24 in
      let* edges = list_size (int_range 0 60) (triple (int_range 0 23) (int_range 0 23) bool) in
      return (n, edges))

(* Random queries biased toward fusable Expand/Filter chains, plus the
   ops that must fall back to the scalar interpreter inside a batch: the
   stateful ones (dedup, aggregates) and [as()], a Set_reg that can land
   between two fusable steps and so splits their chain. *)
let arb_query =
  let open QCheck.Gen in
  let movement =
    oneof
      [
        return (Ast.Out (Some "x"));
        return (Ast.Out (Some "y"));
        return (Ast.Out None);
        return (Ast.In (Some "x"));
        return (Ast.Both (Some "y"));
      ]
  in
  let filter =
    oneof
      [
        map (fun v -> Ast.Has ("weight", Ast.Ge (Value.Int v))) (int_range 0 100);
        map (fun v -> Ast.Has ("weight", Ast.Lt (Value.Int v))) (int_range 0 100);
        return (Ast.Has_label "A");
        return Ast.Dedup;
      ]
  in
  let middle =
    list_size (int_range 0 5) (oneof [ movement; movement; filter; return (Ast.As "a") ])
  in
  let repeat =
    map (fun k -> Ast.Repeat { dir = Graph.Out; label = None; times = k }) (int_range 1 3)
  in
  let terminal =
    oneof
      [
        return [ Ast.Count ];
        return [ Ast.Sum_of "weight" ];
        return [ Ast.Group_count "weight" ];
        return [ Ast.Top_k { key = "weight"; k = 4 } ];
        return [ Ast.Dedup ];
      ]
  in
  let gen =
    let* source =
      oneof
        [
          map (fun i -> Ast.Lookup { label = None; key = "id"; value = Value.Int i }) (int_range 0 23);
          return (Ast.Scan_all (Some "A"));
          return (Ast.Scan_all None);
        ]
    in
    let* use_repeat = bool in
    let* mid = middle in
    let* rep = repeat in
    let* term = terminal in
    let steps = if use_repeat then (rep :: mid) @ term else mid @ term in
    return (Ast.Traversal { Ast.source; steps })
  in
  QCheck.make ~print:(Fmt.str "%a" Ast.pp) gen

let show_rows rows =
  Fmt.str "%a"
    (Fmt.list ~sep:(Fmt.any "@.") (Fmt.array ~sep:(Fmt.any "|") Value.pp))
    (Engine.sorted_rows rows)

let small_cluster = { Cluster.default_config with Cluster.n_nodes = 3; workers_per_node = 3 }

(* Batched + sanitizer: every batch asserts conservation. *)
let batched_common ?faults () =
  { Engine.Common.default with Engine.Common.batched = true; check = true; faults }

let run_async ?common ?(config = small_cluster) graph program =
  let common = match common with Some c -> c | None -> batched_common () in
  Async_engine.run ~common ~cluster_config:config ~channel_config:Channel.default_config ~graph
    [| Engine.submit program |]

let khop_program graph hops =
  Compile.compile ~name:"khop" graph
    Dsl.(v_lookup ~key:"id" (int 0) |> repeat ~dir:Graph.Out ~times:hops () |> count |> build)

(* --- Batched engine vs the oracle --- *)

let batched_matches_oracle =
  QCheck.Test.make ~name:"batched async matches the reference" ~count:120
    (QCheck.pair arb_graph arb_query)
    (fun ((n, edges), ast) ->
      let graph = graph_of ~n ~edges in
      match Compile.compile ~name:"prop" graph ast with
      | exception Compile.Error _ -> QCheck.assume_fail ()
      | program ->
        let expected = show_rows (Local_engine.run graph program) in
        let report = run_async graph program in
        expected = show_rows report.Engine.queries.(0).Engine.rows)

let batched_deterministic =
  QCheck.Test.make ~name:"batched runs are deterministic" ~count:40
    (QCheck.pair arb_graph arb_query)
    (fun ((n, edges), ast) ->
      let graph = graph_of ~n ~edges in
      match Compile.compile ~name:"prop" graph ast with
      | exception Compile.Error _ -> QCheck.assume_fail ()
      | program ->
        let run () =
          let r = run_async graph program in
          ( Engine.latency_ms r.Engine.queries.(0),
            show_rows r.Engine.queries.(0).Engine.rows,
            Metrics.(get r.Engine.metrics Counter.batches) )
        in
        run () = run ())

let test_batched_khop_ldbc () =
  let graph = Pstm_gen.Datasets.load Pstm_gen.Datasets.tiny in
  List.iter
    (fun hops ->
      let program = khop_program graph hops in
      let expected = show_rows (Local_engine.run graph program) in
      let report = run_async graph program in
      Alcotest.(check string) (Fmt.str "%d-hop rows" hops) expected
        (show_rows report.Engine.queries.(0).Engine.rows);
      (* One-partition batched runs must agree too. *)
      let solo =
        run_async ~config:{ small_cluster with Cluster.n_nodes = 1; workers_per_node = 1 } graph
          program
      in
      Alcotest.(check string)
        (Fmt.str "%d-hop rows, one partition" hops)
        expected
        (show_rows solo.Engine.queries.(0).Engine.rows))
    [ 1; 2; 3 ]

(* --- Fault matrix (mirrors test_faults scenarios, batching on) --- *)

let fault_scenarios =
  [
    ("drop", { Faults.none with Faults.drop = 0.1 });
    ("duplicate", { Faults.none with Faults.duplicate = 0.15 });
    ("delay", { Faults.none with Faults.delay_prob = 0.3; delay = Sim_time.us 150 });
    ("straggler", { Faults.none with Faults.slow_nodes = [ (1, 3.0) ] });
    ( "combined",
      {
        Faults.none with
        Faults.seed = 0xC0DE;
        drop = 0.08;
        duplicate = 0.08;
        delay_prob = 0.1;
        delay = Sim_time.us 250;
        slow_nodes = [ (0, 2.0) ];
      } );
  ]

let test_batched_survives_faults () =
  let graph = Pstm_gen.Datasets.load Pstm_gen.Datasets.tiny in
  let program = khop_program graph 3 in
  let expected = show_rows (Local_engine.run graph program) in
  List.iter
    (fun (name, spec) ->
      match run_async ~common:(batched_common ~faults:spec ()) graph program with
      | report ->
        Alcotest.(check bool) (name ^ " completes") true (Engine.all_completed report);
        Alcotest.(check string) (name ^ " matches oracle") expected
          (show_rows report.Engine.queries.(0).Engine.rows)
      | exception Engine.Check_violation message ->
        Alcotest.failf "sanitizer violation under %s faults (batched): %s" name message)
    fault_scenarios

(* --- Batch metrics on/off --- *)

let test_batch_metrics_populated () =
  let graph = Pstm_gen.Datasets.load Pstm_gen.Datasets.tiny in
  let program = khop_program graph 3 in
  let report = run_async graph program in
  let m = report.Engine.metrics in
  Alcotest.(check bool) "batches recorded" true (Metrics.(get m Counter.batches) > 0);
  Alcotest.(check bool) "each batch holds >= 1 traverser" true
    (Metrics.(get m Counter.batched_traversers) >= Metrics.(get m Counter.batches));
  Alcotest.(check bool) "remote sends were coalesced" true
    (Metrics.(get m Counter.coalesced_msgs) > 0);
  Alcotest.(check int) "histogram counts every batch" Metrics.(get m Counter.batches)
    (Histogram.count (Metrics.batch_sizes m))

let test_batching_off_is_scalar_path () =
  let graph = Pstm_gen.Datasets.load Pstm_gen.Datasets.tiny in
  let program = khop_program graph 3 in
  let expected = show_rows (Local_engine.run graph program) in
  let report =
    run_async ~common:{ Engine.Common.default with Engine.Common.check = true } graph program
  in
  let m = report.Engine.metrics in
  Alcotest.(check string) "rows" expected (show_rows report.Engine.queries.(0).Engine.rows);
  Alcotest.(check int) "no batches" 0 Metrics.(get m Counter.batches);
  Alcotest.(check int) "no batched traversers" 0 Metrics.(get m Counter.batched_traversers);
  Alcotest.(check int) "no coalesced messages" 0 Metrics.(get m Counter.coalesced_msgs);
  (* Explicit off equals the default record: the flag defaults to false,
     so existing callers are untouched. *)
  Alcotest.(check bool) "default is unbatched" false Engine.Common.default.Engine.Common.batched

(* --- Batch kernel allocation --- *)

(* Allocation guard for the fused kernel: once its scratch and the sink's
   lanes have grown, [Batch_exec.run] over a packed chain (Expand,
   Expand, a register-free label Filter) allocates nothing per batch.
   1 000 batches of 8 traversers on tiny: measured 0 words per batch;
   2 057 when each batch rebuilt its chain as a list, ran its steps
   through closures over refs and read every adjacency slice as a
   freshly allocated pair. *)
let test_warm_kernel_allocates_nothing () =
  let graph = Pstm_gen.Datasets.load Pstm_gen.Datasets.tiny in
  let program =
    Compile.compile ~name:"chain" graph
      Dsl.(v_lookup ~key:"id" (int 1) |> out_ "link" |> out_ "link" |> has_label "vertex" |> count
           |> build)
  in
  let step =
    let rec find i = if Batch_exec.fusable ~graph program i then i else find (i + 1) in
    find 0
  in
  Alcotest.(check int) "expand, expand, filter" 3 (Array.length (Program.chain program step));
  let travs = Travs.create () in
  for v = 0 to 7 do
    Travs.push travs ~vertex:(v * 3) ~step ~weight:(Weight.random (Prng.create v)) ~regs:[||]
  done;
  let scratch = Batch_exec.scratch ~graph and prng = Prng.create 5 in
  let sink = Exec.sink () in
  let batch () =
    Exec.clear sink;
    Batch_exec.run ~graph ~scratch ~prng ~program ~step travs sink
  in
  for _ = 1 to 10 do
    batch ()
  done;
  Alcotest.(check bool) "the chain spawns" true (Travs.length sink.Exec.spawns > 0);
  Gc.minor ();
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    batch ()
  done;
  let per_batch = (Gc.minor_words () -. before) /. 1000. in
  if per_batch > 0.0 then
    Alcotest.failf "warm batch kernel: %.2f words per batch (bound 0)" per_batch

let () =
  Alcotest.run "batch"
    [
      ( "batched-engine",
        [
          qcheck batched_matches_oracle;
          qcheck batched_deterministic;
          Alcotest.test_case "k-hop on ldbc tiny" `Quick test_batched_khop_ldbc;
          Alcotest.test_case "fault matrix" `Quick test_batched_survives_faults;
          Alcotest.test_case "batch metrics populated" `Quick test_batch_metrics_populated;
          Alcotest.test_case "batching off = scalar path" `Quick test_batching_off_is_scalar_path;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "a warm packed batch allocates nothing" `Quick
            test_warm_kernel_allocates_nothing;
        ] );
    ]
