(* Cross-engine properties: every distributed engine must produce the
   reference interpreter's rows on randomly generated graphs and queries,
   weights must conserve through every step, runs must be deterministic,
   and deadlines must be honored. *)

open Pstm_engine
open Pstm_query

let qcheck = QCheck_alcotest.to_alcotest

(* --- Random fixtures --- *)

(* A random labeled property graph: n vertices with id/weight, random
   edges over two labels. *)
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
      let* edges =
        list_size (int_range 0 60) (triple (int_range 0 23) (int_range 0 23) bool)
      in
      return (n, edges))

(* Random queries from the deterministic fragment: movement, filters,
   dedup, repeat, then an order-insensitive terminal. *)
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
  let middle = list_size (int_range 0 4) (oneof [ movement; filter ]) in
  let repeat = map (fun k -> Ast.Repeat { dir = Graph.Out; label = None; times = k }) (int_range 1 3) in
  let terminal =
    oneof
      [
        return [ Ast.Count ];
        return [ Ast.Sum_of "weight" ];
        return [ Ast.Max_of "weight" ];
        return [ Ast.Min_of "weight" ];
        return [ Ast.Group_count "weight" ];
        return [ Ast.Top_k { key = "weight"; k = 4 } ];
        return [ Ast.Dedup ] (* row stream *);
      ]
  in
  let gen =
    let* source =
      oneof
        [
          map (fun i -> Ast.Lookup { label = None; key = "id"; value = Value.Int i }) (int_range 0 23);
          return (Ast.Scan_all (Some "A"));
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
  Fmt.str "%a" (Fmt.list ~sep:(Fmt.any "@.") (Fmt.array ~sep:(Fmt.any "|") Value.pp))
    (Engine.sorted_rows rows)

let small_cluster = { Cluster.default_config with Cluster.n_nodes = 3; workers_per_node = 3 }

let run_async ?(options = Async_engine.default_options) ?(channel = Channel.default_config)
    ?(config = small_cluster) graph program =
  let report =
    Async_engine.run ~options ~cluster_config:config ~channel_config:channel ~graph
      [| Engine.submit program |]
  in
  report.Engine.queries.(0).Engine.rows

let engines_agree =
  QCheck.Test.make ~name:"async/bsp engines match the reference" ~count:120
    (QCheck.pair arb_graph arb_query)
    (fun ((n, edges), ast) ->
      let graph = graph_of ~n ~edges in
      match Compile.compile ~name:"prop" graph ast with
      | exception Compile.Error _ -> QCheck.assume_fail ()
      | program ->
        let expected = show_rows (Local_engine.run graph program) in
        let async_rows = show_rows (run_async graph program) in
        let bsp_report =
          Bsp_engine.run ~cluster_config:small_cluster ~graph [| Engine.submit program |]
        in
        let bsp_rows = show_rows bsp_report.Engine.queries.(0).Engine.rows in
        expected = async_rows && expected = bsp_rows)

let variants_agree =
  QCheck.Test.make ~name:"flavors, channels and partitions preserve answers" ~count:60
    (QCheck.pair arb_graph arb_query)
    (fun ((n, edges), ast) ->
      let graph = graph_of ~n ~edges in
      match Compile.compile ~name:"prop" graph ast with
      | exception Compile.Error _ -> QCheck.assume_fail ()
      | program ->
        let expected = show_rows (Local_engine.run graph program) in
        List.for_all
          (fun rows -> show_rows rows = expected)
          [
            run_async ~channel:Channel.no_batching graph program;
            run_async ~channel:Channel.tlc_only graph program;
            run_async
              ~options:{ Async_engine.default_options with Async_engine.weight_coalescing = false }
              graph program;
            run_async
              ~options:{ Async_engine.default_options with Async_engine.flavor = Async_engine.Banyan_like }
              graph program;
            run_async
              ~options:{ Async_engine.default_options with Async_engine.flavor = Async_engine.Gaia_like }
              graph program;
            run_async
              ~options:{ Async_engine.default_options with Async_engine.shared_state = true }
              graph program;
            run_async ~config:{ small_cluster with Cluster.n_nodes = 1; workers_per_node = 1 } graph
              program;
          ])

(* Weight conservation through every op (the Exec invariant). *)
let exec_conserves_weight =
  QCheck.Test.make ~name:"exec conserves weight on every step" ~count:150
    (QCheck.triple arb_graph arb_query QCheck.small_int)
    (fun ((n, edges), ast, seed) ->
      let graph = graph_of ~n ~edges in
      match Compile.compile ~name:"prop" graph ast with
      | exception Compile.Error _ -> QCheck.assume_fail ()
      | program ->
        (* Drive the program on a plain queue, checking the invariant on
           every single Exec.run call, each into a cleared sink. *)
        let memo = Memo.create () in
        let prng = Prng.create seed in
        let sink = Exec.sink () in
        let scan label =
          let out = ref [] in
          (match label with
          | None -> Graph.iter_vertices graph (fun v -> out := v :: !out)
          | Some l -> Graph.iter_vertices_with_label graph l (fun v -> out := v :: !out));
          Array.of_list !out
        in
        let queue = Queue.create () in
        Array.iter
          (fun e ->
            Queue.add
              (Traverser.make ~vertex:0 ~step:e ~weight:Weight.root
                 ~n_registers:(Program.n_registers program))
              queue)
          (Program.entries program);
        let ok = ref true in
        let budget = ref 50_000 in
        while (not (Queue.is_empty queue)) && !budget > 0 do
          decr budget;
          let (t : Traverser.t) = Queue.pop queue in
          Exec.clear sink;
          Exec.run sink ~graph ~memo ~prng ~qid:0 ~program ~scan ~vertex:t.vertex ~step:t.step
            ~weight:t.weight ~regs:t.regs;
          let spawns = sink.Exec.spawns in
          let total = ref (Weight.add sink.Exec.finished sink.Exec.row_weight) in
          for i = 0 to Travs.length spawns - 1 do
            total := Weight.add !total (Travs.weight spawns i)
          done;
          if not (Weight.equal !total t.weight) then ok := false;
          if Exec.conserves ~weight:t.weight sink <> Weight.equal !total t.weight then ok := false;
          (* Only follow same-phase spawns; aggregates end phases. *)
          for i = 0 to Travs.length spawns - 1 do
            Queue.add (Travs.get spawns i) queue
          done
        done;
        !ok)

(* Allocation guard for the scalar interpreter: once the sink's lanes
   have grown, a child costs four lane words and no allocation, so a call
   allocates only a small constant for the PRNG state and the graph
   lookups. [Gc.minor_words] is exact in native code. *)
let test_exec_allocation () =
  let n = 20 in
  let graph = graph_of ~n:(n + 1) ~edges:(List.init n (fun i -> (0, i + 1, true))) in
  let step op next = { Step.op; next } in
  let program =
    Program.make ~name:"alloc"
      ~steps:
        [|
          step (Step.Scan { vertex_label = None }) 1;
          step (Step.Expand { dir = Graph.Out; edge_label = None }) 2;
          step (Step.Filter Step.True) 3;
          step (Step.Emit [||]) (-1);
        |]
      ~n_registers:0 ~entries:[| 0 |]
  in
  let memo = Memo.create () and prng = Prng.create 3 and sink = Exec.sink () in
  let scan _ = [||] in
  let words_of step =
    Exec.clear sink;
    let before = Gc.minor_words () in
    Exec.run sink ~graph ~memo ~prng ~qid:0 ~program ~scan ~vertex:0 ~step ~weight:Weight.root
      ~regs:[||];
    let after = Gc.minor_words () in
    int_of_float (after -. before)
  in
  let expand = 1 and filter = 2 in
  ignore (words_of expand : int);
  ignore (words_of filter : int);
  let expand_words = words_of expand in
  Alcotest.(check int) "expand spawns every edge" n (Travs.length sink.Exec.spawns);
  if expand_words > (5 * n) + 16 then
    Alcotest.failf "expand with %d children allocated %d words (bound %d)" n expand_words
      ((5 * n) + 16);
  let filter_words = words_of filter in
  Alcotest.(check int) "filter passes" 1 (Travs.length sink.Exec.spawns);
  if filter_words > 5 then Alcotest.failf "passing filter allocated %d words (bound 5)" filter_words

(* Allocation guard for Visit: a traverser that does not improve its
   vertex's distance finishes with no child, reads its distance register
   and probes the memo, and allocates nothing. Measured 0 words; 2 when
   [Value.to_int_exn] went through the option [to_int] returns (the dev
   build does not inline it), 5 more when the sink boxed each child. *)
let test_visit_allocation () =
  let graph = graph_of ~n:4 ~edges:[ (0, 1, true); (1, 2, true); (2, 3, true) ] in
  let step op next = { Step.op; next } in
  let program =
    Program.make ~name:"visit"
      ~steps:
        [|
          step (Step.Scan { vertex_label = None }) 1;
          step (Step.Visit { dist_reg = 0; max_hops = 2; cont = 3; emit_improved = false }) 2;
          step (Step.Expand { dir = Graph.Out; edge_label = None }) 1;
          step (Step.Emit [||]) (-1);
        |]
      ~n_registers:1 ~entries:[| 0 |]
  in
  let memo = Memo.create () and prng = Prng.create 3 and sink = Exec.sink () in
  let scan _ = [||] in
  let regs = [| Value.Int 1 |] in
  let visit () =
    Exec.clear sink;
    Exec.run sink ~graph ~memo ~prng ~qid:0 ~program ~scan ~vertex:1 ~step:1 ~weight:Weight.root
      ~regs
  in
  visit ();
  Alcotest.(check int) "a first visit spawns" 2 (Travs.length sink.Exec.spawns);
  visit ();
  Alcotest.(check int) "a repeat does not" 0 (Travs.length sink.Exec.spawns);
  let before = Gc.minor_words () in
  visit ();
  let words = int_of_float (Gc.minor_words () -. before) in
  Alcotest.(check int) "still no child" 0 (Travs.length sink.Exec.spawns);
  if words > 0 then
    Alcotest.failf "a Visit that does not improve allocated %d words (bound 0)" words

(* Determinism: identical runs give identical reports. *)
let runs_deterministic =
  QCheck.Test.make ~name:"async engine is deterministic" ~count:40
    (QCheck.pair arb_graph arb_query)
    (fun ((n, edges), ast) ->
      let graph = graph_of ~n ~edges in
      match Compile.compile ~name:"prop" graph ast with
      | exception Compile.Error _ -> QCheck.assume_fail ()
      | program ->
        let run () =
          let r =
            Async_engine.run ~cluster_config:small_cluster ~channel_config:Channel.default_config
              ~graph [| Engine.submit program |]
          in
          (Engine.latency_ms r.Engine.queries.(0), show_rows r.Engine.queries.(0).Engine.rows)
        in
        run () = run ())

(* --- Directed scenario tests --- *)

let khop_program graph hops =
  Compile.compile ~name:"khop" graph
    Dsl.(v_lookup ~key:"id" (int 0) |> repeat ~dir:Graph.Out ~times:hops () |> count |> build)

let test_concurrent_queries_complete () =
  let graph = Pstm_gen.Datasets.load Pstm_gen.Datasets.tiny in
  let program = khop_program graph 2 in
  let expected = show_rows (Local_engine.run graph program) in
  let submissions =
    Array.init 20 (fun i -> Engine.submit ~at:(Sim_time.us (i * 7)) program)
  in
  let report =
    Async_engine.run ~cluster_config:small_cluster ~channel_config:Channel.default_config ~graph
      submissions
  in
  Alcotest.(check bool) "all complete" true (Engine.all_completed report);
  Array.iter
    (fun q -> Alcotest.(check string) "same rows under concurrency" expected (show_rows q.Engine.rows))
    report.Engine.queries;
  (* Latencies are sane: completion after submission. *)
  Array.iter
    (fun (q : Engine.query_report) ->
      Alcotest.(check bool) "positive latency" true (Engine.latency_ms q > 0.0))
    report.Engine.queries

let test_deadline_times_out () =
  let graph = Pstm_gen.Datasets.load Pstm_gen.Datasets.lj_like in
  let program =
    Compile.compile ~name:"big" graph
      Dsl.(v_lookup ~key:"id" (int 1) |> repeat_out "link" ~times:4 |> count |> build)
  in
  let report =
    Async_engine.run
      ~common:(Engine.Common.with_deadline (Some (Sim_time.us 10)) Engine.Common.default)
      ~cluster_config:small_cluster
      ~channel_config:Channel.default_config ~graph
      [| Engine.submit program |]
  in
  Alcotest.(check bool) "timed out" false (Engine.all_completed report);
  Alcotest.(check bool) "latency reported as infinite" true
    (Engine.latency_ms report.Engine.queries.(0) = Float.infinity)

let test_bsp_profiles_same_rows () =
  let graph = Pstm_gen.Datasets.load Pstm_gen.Datasets.tiny in
  let program = khop_program graph 3 in
  let expected = show_rows (Local_engine.run graph program) in
  List.iter
    (fun profile ->
      let report = Bsp_engine.run ~profile ~cluster_config:small_cluster ~graph [| Engine.submit program |] in
      Alcotest.(check string)
        (Bsp_engine.profile_name profile)
        expected
        (show_rows report.Engine.queries.(0).Engine.rows);
      (* The interpreted profile must be slower. *)
      ignore report)
    [ Bsp_engine.Ablation; Bsp_engine.Tigergraph_role ]

let test_tigergraph_profile_slower () =
  let graph = Pstm_gen.Datasets.load Pstm_gen.Datasets.tiny in
  let program = khop_program graph 3 in
  let latency profile =
    let r = Bsp_engine.run ~profile ~cluster_config:small_cluster ~graph [| Engine.submit program |] in
    Engine.latency_ms r.Engine.queries.(0)
  in
  Alcotest.(check bool) "interpretation costs" true
    (latency Bsp_engine.Tigergraph_role > latency Bsp_engine.Ablation)

(* BSP admission, pinned: which barrier admits each query, and in what
   order queries start, time out and complete. Queries arrive out of qid
   order, share arrival instants, and one carries a deadline it misses. *)
let test_bsp_admission_order () =
  let graph = Pstm_gen.Datasets.load Pstm_gen.Datasets.tiny in
  let obs = Pstm_obs.Recorder.create () in
  let submissions =
    [|
      Engine.submit ~at:(Sim_time.us 40) (khop_program graph 3);
      Engine.submit (khop_program graph 2);
      Engine.submit ~at:(Sim_time.us 40) (khop_program graph 1);
      Engine.submit ~at:(Sim_time.us 5) ~deadline:(Sim_time.us 1) (khop_program graph 3);
      Engine.submit (khop_program graph 3);
      Engine.submit ~at:(Sim_time.us 90) (khop_program graph 2);
    |]
  in
  let report =
    Bsp_engine.run ~common:{ Engine.Common.default with Engine.Common.obs }
      ~cluster_config:small_cluster ~graph submissions
  in
  let order = ref [] in
  Pstm_obs.Trace.iter
    (fun (e : Pstm_obs.Trace.event) ->
      if e.Pstm_obs.Trace.tid >= Engine.query_track 0 && e.Pstm_obs.Trace.name <> "first_touch"
      then
        order :=
          Fmt.str "%s:%d@%d" e.Pstm_obs.Trace.name
            (e.Pstm_obs.Trace.tid - Engine.query_track 0)
            (Sim_time.to_ns e.Pstm_obs.Trace.ts)
          :: !order)
    (Pstm_obs.Recorder.trace obs);
  Alcotest.(check (list string)) "query instants in order"
    [
      "submit:1@0"; "submit:4@0"; "submit:0@40000"; "submit:2@40000"; "submit:3@5000";
      "timed_out:3@48801"; "submit:5@90000"; "phase_complete:1@419442"; "phase_complete:2@419442";
      "phase_complete:0@495907"; "complete:1@495907"; "complete:2@495907";
      "phase_complete:4@495907"; "complete:0@572277"; "complete:4@572277";
      "phase_complete:5@572277"; "complete:5@616877";
    ]
    (List.rev !order);
  Alcotest.(check int) "makespan" 616877 (Sim_time.to_ns report.Engine.makespan)

let test_single_node_engine () =
  let graph = Pstm_gen.Datasets.load Pstm_gen.Datasets.tiny in
  let program = khop_program graph 2 in
  let expected = show_rows (Local_engine.run graph program) in
  let report =
    Engine.run_via_start
      (Single_node_engine.start ~memory_capacity:Single_node_engine.default_memory_capacity
         ~workers:4 ~base_config:Cluster.default_config)
      ~graph [| Engine.submit program |]
  in
  Alcotest.(check string) "rows" expected (show_rows report.Engine.queries.(0).Engine.rows);
  Alcotest.(check int) "no network packets on one node" 0
    Metrics.(get report.Engine.metrics Counter.packets)

(* Words allocated per traverser message and per step by a third run of
   [program] in one warm async session on tiny (4 nodes, 1 worker each).
   The program is compiled once, before the runs, so the measured run
   counts the engine alone.
   [sh_finish] serves as a probe of the session's live counters (the
   sanitizer is off). *)
let warm_words ~batched program =
  let graph = Pstm_gen.Datasets.load Pstm_gen.Datasets.tiny in
  let h =
    Async_engine.create
      ~common:{ Engine.Common.default with Engine.Common.batched }
      ~cluster_config:{ Cluster.default_config with Cluster.n_nodes = 4; workers_per_node = 1 }
      ~channel_config:Channel.default_config ~graph ()
  in
  let program = program graph in
  let run () =
    ignore (h.Engine.sh_submit (Engine.submit ~at:(h.Engine.sh_now ()) program) : int);
    h.Engine.sh_drive ~until:None
  in
  let counts () =
    let m = (h.Engine.sh_finish ()).Engine.metrics in
    ( Metrics.messages m Metrics.Traverser_msg + Metrics.messages m Metrics.Result_msg,
      Metrics.(get m Counter.steps) )
  in
  run ();
  run ();
  let msgs0, steps0 = counts () in
  Gc.minor ();
  let before = Gc.minor_words () in
  run ();
  let words = Gc.minor_words () -. before in
  let msgs, steps = counts () in
  (words /. float_of_int (msgs - msgs0), words /. float_of_int (steps - steps0))

(* Allocation guard for the message path: in a warm session (the query
   ran once already, so rings, slab, channel lanes, sink lanes and memo
   pools have grown), a traverser travels as lane words from the sink to
   the slab to the staging group, and no record is built for it. What a
   scalar 3-hop run still allocates is the register file of a child
   whose loop counter moves: measured 1.35 words per traverser message
   (bound 2). The batched run, whose coalesced messages carry pooled
   lane arrays from the slab's batch table, measured 0.96 words per step
   (bound 1.5). The program is compiled before the measured runs; the
   figures below, measured with the compile inside each run, are not
   comparable with these: scalar 2.6 (2.7 while the counter was a fresh
   boxed int, 13 with a 5-word record per child, 19-20 when each message
   was boxed as well); batched 1.7 (3.9 with three fresh lane arrays per
   message and closures in the batch kernel, 9.8 with a record per
   child, 18 with a tuple-keyed staging table and list buckets). *)
let test_warm_run_allocation () =
  let program graph =
    Compile.compile ~name:"khop3" graph
      Dsl.(v_lookup ~key:"id" (int 1) |> repeat ~dir:Graph.Out ~times:3 () |> count |> build)
  in
  let per_msg, _ = warm_words ~batched:false program in
  if per_msg > 2.0 then
    Alcotest.failf "warm scalar run: %.2f words per traverser message (bound 2)" per_msg;
  let _, per_step = warm_words ~batched:true program in
  if per_step > 1.5 then
    Alcotest.failf "warm batched run: %.2f words per step (bound 1.5)" per_step

(* Allocation guard for routing: a Dedup step keyed by the vertex routes
   and tests its memo without boxing the key, and no step builds its
   routing at dispatch. A warm scalar run, compiled before the measured
   runs, measured 0.45 words per step (bound 0.7). With the compile
   inside each run it measured 1.1; 6.1 when each child was a 5-word
   record, 8.6 when each Dedup dispatch also built a [By_key] and boxed
   a [Value.Vertex] twice. *)
let test_warm_dedup_allocation () =
  let program graph =
    Compile.compile ~name:"dedup2" graph
      Dsl.(v_lookup ~key:"id" (int 1) |> out_ "link" |> dedup |> out_ "link" |> dedup
           |> out_ "link" |> count |> build)
  in
  let _, per_step = warm_words ~batched:false program in
  if per_step > 0.7 then
    Alcotest.failf "warm dedup run: %.2f words per step (bound 0.7)" per_step

(* Allocation guard for a quantum and the top-k accumulate. Eight 2-hop
   top-10 queries by the integer property "weight", compiled once, run
   scalar on 8 nodes x 2 workers in a warm session; the third run is
   measured. Each traverser runs in some quantum and each one reaching
   the aggregate accumulates, so a quantum that allocates its clock or
   a top-k that boxes its score and vertex shows up per step. Bound
   0.125 words per step, measured 0.085: 0.168 with a ref per quantum,
   2.51 with the boxed top-k, 2.59 with both. *)
let test_warm_topk_allocation () =
  let graph = Pstm_gen.Datasets.load Pstm_gen.Datasets.tiny in
  let programs =
    Array.init 8 (fun i ->
        Compile.compile ~name:"top2hop" graph
          Dsl.(v_lookup ~key:"id" (int (i + 1)) |> out_ "link" |> out_ "link"
               |> top_k "weight" 10 |> build))
  in
  let h =
    Async_engine.create
      ~cluster_config:{ Cluster.default_config with Cluster.n_nodes = 8; workers_per_node = 2 }
      ~channel_config:Channel.default_config ~graph ()
  in
  let run () =
    Array.iter
      (fun p -> ignore (h.Engine.sh_submit (Engine.submit ~at:(h.Engine.sh_now ()) p) : int))
      programs;
    h.Engine.sh_drive ~until:None
  in
  let steps () = Metrics.(get (h.Engine.sh_finish ()).Engine.metrics Counter.steps) in
  run ();
  run ();
  let steps0 = steps () in
  Gc.minor ();
  let before = Gc.minor_words () in
  run ();
  let words = Gc.minor_words () -. before in
  let per_step = words /. float_of_int (steps () - steps0) in
  if per_step > 0.125 then
    Alcotest.failf "warm top-k run: %.3f words per step (bound 0.125)" per_step

let test_worker_busy_reported () =
  let graph = Pstm_gen.Datasets.load Pstm_gen.Datasets.tiny in
  let program = khop_program graph 2 in
  let report =
    Async_engine.run ~cluster_config:small_cluster ~channel_config:Channel.default_config ~graph
      [| Engine.submit program |]
  in
  Alcotest.(check int) "one entry per worker" 9 (Array.length report.Engine.worker_busy);
  let total = Array.fold_left ( + ) 0 report.Engine.worker_busy in
  Alcotest.(check bool) "some work recorded" true (total > 0);
  Alcotest.(check bool) "max below makespan" true
    (Array.for_all (fun b -> b <= report.Engine.makespan) report.Engine.worker_busy)

let test_wc_off_sends_more_progress () =
  let graph = Pstm_gen.Datasets.load Pstm_gen.Datasets.tiny in
  let program = khop_program graph 3 in
  let progress wc =
    let r =
      Async_engine.run
        ~options:{ Async_engine.default_options with Async_engine.weight_coalescing = wc }
        ~cluster_config:small_cluster ~channel_config:Channel.default_config ~graph
        [| Engine.submit program |]
    in
    Metrics.messages r.Engine.metrics Metrics.Progress_msg
  in
  Alcotest.(check bool) "coalescing reduces tracker messages" true (progress false > progress true)

(* Flat progress tracking far past the paper's 8-node testbed: at 64
   nodes every worker's coalesced weight still lands on the coordinator,
   and the sanitizer (weight conservation, empty coalescers at finish)
   must hold while every query completes with the oracle's rows. *)
let test_flat_tracking_at_scale () =
  let graph = Pstm_gen.Datasets.load Pstm_gen.Datasets.tiny in
  let khop start =
    Compile.compile ~name:"khop3" graph
      Dsl.(v_lookup ~key:"id" (int start) |> repeat ~dir:Graph.Out ~times:3 () |> count |> build)
  in
  let programs = List.map khop [ 1; 17; 63 ] in
  let report =
    Async_engine.run
      ~common:{ Engine.Common.default with Engine.Common.check = true }
      ~cluster_config:{ Cluster.default_config with Cluster.n_nodes = 64; workers_per_node = 2 }
      ~channel_config:Channel.default_config ~graph
      (Array.of_list (List.map Engine.submit programs))
  in
  Alcotest.(check bool) "all complete" true (Engine.all_completed report);
  List.iteri
    (fun i program ->
      Alcotest.(check string) "oracle rows"
        (show_rows (Local_engine.run graph program))
        (show_rows report.Engine.queries.(i).Engine.rows))
    programs

let () =
  Alcotest.run "engines"
    [
      ( "properties",
        [
          qcheck engines_agree;
          qcheck variants_agree;
          qcheck exec_conserves_weight;
          qcheck runs_deterministic;
        ] );
      ( "scenarios",
        [
          Alcotest.test_case "concurrent queries" `Quick test_concurrent_queries_complete;
          Alcotest.test_case "deadline timeout" `Quick test_deadline_times_out;
          Alcotest.test_case "exec allocation" `Quick test_exec_allocation;
          Alcotest.test_case "a visit that does not improve allocates nothing" `Quick
            test_visit_allocation;
          Alcotest.test_case "bsp profiles agree" `Quick test_bsp_profiles_same_rows;
          Alcotest.test_case "tigergraph profile slower" `Quick test_tigergraph_profile_slower;
          Alcotest.test_case "bsp admission order" `Quick test_bsp_admission_order;
          Alcotest.test_case "single node" `Quick test_single_node_engine;
          Alcotest.test_case "warm runs allocate no traverser record" `Quick
            test_warm_run_allocation;
          Alcotest.test_case "warm dedup routing allocates no key" `Quick
            test_warm_dedup_allocation;
          Alcotest.test_case "a warm top-k run allocates no clock or score" `Quick
            test_warm_topk_allocation;
          Alcotest.test_case "worker busy reported" `Quick test_worker_busy_reported;
          Alcotest.test_case "wc off sends more progress" `Quick test_wc_off_sends_more_progress;
          Alcotest.test_case "flat tracking at scale, sanitizer on" `Quick
            test_flat_tracking_at_scale;
        ] );
    ]
