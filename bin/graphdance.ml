(* graphdance — command-line front end.

   Subcommands:
     datasets                 list the built-in datasets and their sizes
     query    -d DS -q "..."  run a Gremlin query on a dataset
     explain  -d DS -q "..."  show the optimized plan without running it
     trace    -d DS -q "..."  run with tracing: operator stats + Chrome trace
     why      -d DS -q "..."  run with causal tracing: EXPLAIN LATENCY attribution
     chaos    -d DS -q "..."  run under injected faults, checked against the oracle
     mc       [-m MUTANT]     explore event interleavings; conformance + mutant catching
     repartition -d DS -q ... profile a workload, refine the owner table, compare
     ldbc     -d snb-s        run one pass of the LDBC IC/IS queries
     serve    -d DS [-q ...]  open-loop multi-tenant service with admission control
     verify   -d DS [-q ...]  static-verify one query, or the LDBC suite

   Queries run on the simulated cluster; reported latency is simulated
   time on the modeled hardware (see DESIGN.md). Engines are addressed
   by their Registry name (-e graphdance|bsp|local|...). *)

open Cmdliner
open Pstm_engine
open Pstm_query

let dataset_presets =
  [
    ("tiny", `Rmat Pstm_gen.Datasets.tiny);
    ("lj-like", `Rmat Pstm_gen.Datasets.lj_like);
    ("fs-like", `Rmat Pstm_gen.Datasets.fs_like);
    ("snb-tiny", `Snb Pstm_ldbc.Snb_gen.snb_tiny);
    ("snb-s", `Snb Pstm_ldbc.Snb_gen.snb_s);
    ("snb-l", `Snb Pstm_ldbc.Snb_gen.snb_l);
  ]

let load_graph name =
  match List.assoc_opt name dataset_presets with
  | Some (`Rmat preset) -> Ok (Pstm_gen.Datasets.load preset)
  | Some (`Snb scale) -> Ok (Pstm_ldbc.Snb_gen.load scale).Pstm_ldbc.Snb_gen.graph
  | None ->
    Error
      (Fmt.str "unknown dataset %S (available: %s)" name
         (String.concat ", " (List.map fst dataset_presets)))

(* --- Arguments --- *)

let dataset_arg =
  let doc = "Dataset to run against (tiny, lj-like, fs-like, snb-tiny, snb-s, snb-l)." in
  Arg.(value & opt string "snb-tiny" & info [ "d"; "dataset" ] ~docv:"DATASET" ~doc)

let query_arg =
  let doc = "Gremlin query text, e.g. \"g.V().has('id', 3).out('knows').count()\"." in
  Arg.(required & opt (some string) None & info [ "q"; "query" ] ~docv:"QUERY" ~doc)

let engine_arg =
  let doc =
    Fmt.str "Execution engine: %s (or async, an alias for graphdance)."
      (String.concat ", " (Registry.names ()))
  in
  Arg.(value & opt string "graphdance" & info [ "e"; "engine" ] ~docv:"ENGINE" ~doc)

(* A count of at least 1: anything else is a usage error where it is
   parsed, not an exception inside the run. *)
let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg (Fmt.str "expected a positive integer, got %S" s))
  in
  Arg.conv (parse, Fmt.int)

(* A rate above 0, likewise. *)
let positive_float =
  let parse s =
    match float_of_string_opt s with
    | Some x when Float.is_finite x && Float.compare x 0. > 0 -> Ok x
    | _ -> Error (`Msg (Fmt.str "expected a positive number, got %S" s))
  in
  Arg.conv (parse, Fmt.float)

let nodes_arg =
  let doc = "Simulated cluster nodes." in
  Arg.(value & opt positive_int 8 & info [ "nodes" ] ~doc)

let workers_arg =
  let doc = "Worker threads per node (one graph partition each)." in
  Arg.(value & opt positive_int 16 & info [ "workers" ] ~doc)

let cluster_arg =
  let config n_nodes workers_per_node =
    { Cluster.default_config with Cluster.n_nodes; workers_per_node }
  in
  Term.(const config $ nodes_arg $ workers_arg)

let rec parse_all parse = function
  | [] -> Ok []
  | x :: rest ->
    Result.bind (parse x) (fun v -> Result.map (fun vs -> v :: vs) (parse_all parse rest))

let slow_arg =
  let doc = "Straggler node as NODE:FACTOR (e.g. 0:3.0); repeatable." in
  let parse s =
    match String.split_on_char ':' s with
    | [ node; factor ] -> begin
      match (int_of_string_opt node, float_of_string_opt factor) with
      | Some n, Some f -> Ok (n, f)
      | _ -> Error (Fmt.str "bad --slow %S (expected NODE:FACTOR)" s)
    end
    | _ -> Error (Fmt.str "bad --slow %S (expected NODE:FACTOR)" s)
  in
  Term.(
    const (parse_all parse)
    $ Arg.(value & opt_all string [] & info [ "slow" ] ~docv:"NODE:FACTOR" ~doc))

(* A straggler or a pause outside the cluster would slow nothing down: a
   typo must not turn the fault off silently. *)
let outside_cluster (config : Cluster.config) flag n =
  Error
    (Fmt.str "%s node %d is outside the cluster (nodes 0 to %d)" flag n
       (config.Cluster.n_nodes - 1))

let in_cluster (config : Cluster.config) n = n >= 0 && n < config.Cluster.n_nodes

let slow_in_cluster config slow_nodes =
  match List.find_opt (fun (n, _) -> not (in_cluster config n)) slow_nodes with
  | None -> Ok slow_nodes
  | Some (n, _) -> outside_cluster config "--slow" n

let batched_arg =
  let doc =
    "Enable frontier-batched execution: fusable Expand/Filter chains run as CSR-range \
     scans over each (partition, step) batch, and remote children ship as one coalesced \
     message per destination. Only the async engine batches; the oracle ignores the flag."
  in
  Arg.(value & flag & info [ "batched" ] ~doc)

(* --- Commands --- *)

let datasets_cmd =
  let run () =
    Fmt.pr "%-10s %12s %12s %10s  %s@." "name" "vertices" "edges" "size" "stands in for";
    List.iter
      (fun (name, kind) ->
        let paper, graph =
          match kind with
          | `Rmat preset ->
            (preset.Pstm_gen.Datasets.paper_name, Pstm_gen.Datasets.load preset)
          | `Snb scale ->
            ( scale.Pstm_ldbc.Snb_gen.paper_name,
              (Pstm_ldbc.Snb_gen.load scale).Pstm_ldbc.Snb_gen.graph )
        in
        Fmt.pr "%-10s %12d %12d %8.1fMB  %s@." name (Graph.n_vertices graph)
          (Graph.n_edges graph)
          (float_of_int (Graph.bytes graph) /. 1e6)
          paper)
      dataset_presets
  in
  Cmd.v (Cmd.info "datasets" ~doc:"List built-in datasets")
    Term.(const (fun () -> run (); 0) $ const ())

let compile_query graph text =
  match Parser.parse text with
  | Error message -> Error ("parse error: " ^ message)
  | Ok ast -> begin
    match Compile.compile ~name:"cli" graph ast with
    | program -> Ok program
    | exception Compile.Error message -> Error ("compile error: " ^ message)
  end

(* Resolve an engine name against a registry built for the requested
   topology. *)
let resolve_engine ~config name =
  let registry = Registry.make ~cluster_config:config () in
  match Registry.find ~registry name with
  | Some e -> Ok e
  | None ->
    Error
      (Fmt.str "unknown engine %S (available: %s, or async)" name
         (String.concat ", " (Registry.names ~registry ())))

let run_query dataset text engine config batched =
  let ( let* ) = Result.bind in
  let* graph = load_graph dataset in
  let* program = compile_query graph text in
  let* (module E : Engine.S) = resolve_engine ~config engine in
  let common = Engine.Common.with_batched batched Engine.Common.default in
  let report = E.run ~common ~graph [| Engine.submit program |] in
  let q = report.Engine.queries.(0) in
  let rows = q.Engine.rows in
  (* The oracle has no clock, so its synthesized report carries no
     meaningful latency. *)
  let latency = if E.name = "local" then None else Engine.latency q in
  List.iter (fun row -> Fmt.pr "%a@." (Fmt.array ~sep:(Fmt.any " | ") Value.pp) row) rows;
  Fmt.pr "-- %d row(s)%a@." (List.length rows)
    (fun ppf -> function
      | None -> ()
      | Some l -> Fmt.pf ppf "; simulated latency %a" Sim_time.pp l)
    latency;
  (if batched then
     let m = report.Engine.metrics in
     Fmt.pr "-- batching: %d batch(es), %d traverser(s) batched, %d coalesced message(s)@."
       Metrics.(get m Counter.batches)
       Metrics.(get m Counter.batched_traversers)
       Metrics.(get m Counter.coalesced_msgs));
  Ok ()

let to_exit = function
  | Ok () -> 0
  | Error message ->
    Fmt.epr "graphdance: %s@." message;
    1

let query_cmd =
  let run dataset text engine config batched =
    to_exit (run_query dataset text engine config batched)
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Run a Gremlin query on a simulated cluster")
    Term.(const run $ dataset_arg $ query_arg $ engine_arg $ cluster_arg $ batched_arg)

let explain_cmd =
  let run dataset text =
    to_exit
      (let ( let* ) = Result.bind in
       let* graph = load_graph dataset in
       let* program = compile_query graph text in
       Fmt.pr "%a@." Program.pp program;
       Ok ())
  in
  Cmd.v
    (Cmd.info "explain" ~doc:"Show the optimized PSTM plan for a query")
    Term.(const run $ dataset_arg $ query_arg)

let verify_cmd =
  let opt_query_arg =
    let doc = "Gremlin query to verify; without it the whole LDBC IC/IS suite is checked." in
    Arg.(value & opt (some string) None & info [ "q"; "query" ] ~docv:"QUERY" ~doc)
  in
  let report name program =
    let diags = Pstm_analysis.Verify.check_program program in
    List.iter (fun d -> Fmt.pr "%s: %a@." name Pstm_analysis.Diagnostic.pp d) diags;
    let ok = Pstm_analysis.Verify.is_clean diags in
    if ok then
      Fmt.pr "%-5s ok (%d steps, %d phases)@." name (Program.n_steps program)
        (Program.n_phases program);
    ok
  in
  let run dataset text =
    to_exit
      (let ( let* ) = Result.bind in
       match text with
       | Some text ->
         let* graph = load_graph dataset in
         (* Compile.finish already gates on the verifier, so reaching the
            report below means the program is clean; a rejected program
            surfaces as the compile/verification error text. *)
         let* program =
           match compile_query graph text with
           | Ok _ as ok -> ok
           | Error _ as e -> e
           | exception Program.Invalid message -> Error ("verification error: " ^ message)
         in
         if report "query" program then Ok () else Error "verification failed"
       | None -> begin
         match List.assoc_opt dataset dataset_presets with
         | Some (`Snb scale) ->
           let data = Pstm_ldbc.Snb_gen.load scale in
           let prng = Prng.create 7 in
           let failures = ref 0 in
           List.iter
             (fun (name, make) ->
               match make data prng with
               | program -> if not (report name program) then incr failures
               | exception Program.Invalid message ->
                 incr failures;
                 Fmt.pr "%-5s REJECTED: %s@." name message)
             (Pstm_ldbc.Ic_queries.all @ Pstm_ldbc.Is_queries.all);
           if !failures = 0 then Ok ()
           else Error (Fmt.str "%d program(s) failed verification" !failures)
         | _ -> Error "verify without -q requires an SNB dataset (snb-tiny, snb-s, snb-l)"
       end)
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Statically verify compiled programs (weight flow, memo lifetime, registers)")
    Term.(const run $ dataset_arg $ opt_query_arg)

let trace_cmd =
  let trace_out_arg =
    let doc = "Write the Chrome trace-event JSON (open in chrome://tracing or Perfetto) here." in
    Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)
  in
  let run dataset text engine config trace_out =
    to_exit
      (let ( let* ) = Result.bind in
       let* graph = load_graph dataset in
       let* program = compile_query graph text in
       let* (module E : Engine.S) = resolve_engine ~config engine in
       let obs = Pstm_obs.Recorder.create () in
       let report =
         E.run ~common:(Engine.Common.with_obs obs Engine.Common.default) ~graph
           [| Engine.submit program |]
       in
       let q = report.Engine.queries.(0) in
       let step_label i = Step.op_summary (Program.step program i).Step.op in
       Fmt.pr "%a@." (Pstm_obs.Opstats.pp_table ~step_label) (Pstm_obs.Recorder.opstats obs);
       Fmt.pr "%a@." Engine.pp_query q;
       let trace = Pstm_obs.Recorder.trace obs in
       Fmt.pr "trace: %d event(s) recorded, %d dropped@." (Pstm_obs.Trace.length trace)
         (Pstm_obs.Trace.dropped trace);
       (match trace_out with
       | None -> ()
       | Some path ->
         Pstm_obs.Json.write_file path (Pstm_obs.Trace.to_chrome_json trace);
         Fmt.pr "trace written to %s@." path);
       Ok ())
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run a query with tracing: operator stats table plus a Chrome trace-event file")
    Term.(
      const run $ dataset_arg $ query_arg $ engine_arg $ cluster_arg $ trace_out_arg)

let why_cmd =
  let json_arg =
    let doc = "Also write the full causal attribution JSON here." in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  let segments_arg =
    let doc = "Show the N longest critical-path segments." in
    Arg.(value & opt int 10 & info [ "segments" ] ~docv:"N" ~doc)
  in
  let run dataset text config batched slow_nodes json segments =
    to_exit
      (let ( let* ) = Result.bind in
       let* graph = load_graph dataset in
       let* program = compile_query graph text in
       let* slow_nodes = Result.bind slow_nodes (slow_in_cluster config) in
       let obs = Pstm_obs.Recorder.create ~causal:true () in
       let faults =
         if slow_nodes = [] then None else Some { Faults.none with Faults.slow_nodes }
       in
       let common =
         { Engine.Common.default with Engine.Common.obs; batched; faults }
       in
       let report =
         Async_engine.run ~common ~cluster_config:config
           ~channel_config:Channel.default_config ~graph
           [| Engine.submit program |]
       in
       let q = report.Engine.queries.(0) in
       Fmt.pr "%a@." Engine.pp_query q;
       let causal = Pstm_obs.Recorder.causal obs in
       match Pstm_obs.Causal.critical_path causal ~qid:0 with
       | None -> Error "no complete causal path (query timed out or DAG truncated)"
       | Some path ->
         Fmt.pr "%a@." (fun ppf () -> Pstm_obs.Causal.pp_explain ppf causal ~qid:0) ();
         let longest =
           List.sort
             (fun a b -> compare (Pstm_obs.Causal.seg_dur b) (Pstm_obs.Causal.seg_dur a))
             path
         in
         let top = List.filteri (fun i _ -> i < segments) longest in
         Fmt.pr "longest segments (of %d on the critical path):@." (List.length path);
         List.iter
           (fun (s : Pstm_obs.Causal.seg) ->
             Fmt.pr "  %-22s %-14s -> %-14s %a@."
               (Pstm_obs.Causal.category_name s.Pstm_obs.Causal.seg_cat)
               s.Pstm_obs.Causal.seg_src s.Pstm_obs.Causal.seg_dst Sim_time.pp
               (Pstm_obs.Causal.seg_dur s))
           top;
         (match json with
         | None -> ()
         | Some path ->
           Pstm_obs.Json.write_file path (Pstm_obs.Causal.to_json causal);
           Fmt.pr "causal attribution written to %s@." path);
         Ok ())
  in
  Cmd.v
    (Cmd.info "why"
       ~doc:
         "Run a query with causal tracing and explain where its latency went: critical-path \
          extraction over the hand-off DAG, attributed to compute / queue-wait / network / \
          retransmit-recovery / barrier / tracker-coordination")
    Term.(
      const run $ dataset_arg $ query_arg $ cluster_arg $ batched_arg $ slow_arg $ json_arg
      $ segments_arg)

let chaos_cmd =
  let drop_arg =
    let doc = "Probability of dropping each cross-node packet." in
    Arg.(value & opt float 0.05 & info [ "drop" ] ~docv:"P" ~doc)
  in
  let dup_arg =
    let doc = "Probability of duplicating each cross-node packet." in
    Arg.(value & opt float 0.0 & info [ "dup" ] ~docv:"P" ~doc)
  in
  let delay_prob_arg =
    let doc = "Probability of a delay spike on each cross-node packet." in
    Arg.(value & opt float 0.0 & info [ "delay-prob" ] ~docv:"P" ~doc)
  in
  let delay_us_arg =
    let doc = "Delay-spike magnitude in simulated microseconds." in
    Arg.(value & opt int 200 & info [ "delay-us" ] ~docv:"US" ~doc)
  in
  let pause_arg =
    let doc = "Pause window as NODE:FROM_US:DUR_US (e.g. 1:100:500); repeatable." in
    Arg.(value & opt_all string [] & info [ "pause" ] ~docv:"NODE:FROM_US:DUR_US" ~doc)
  in
  let seed_arg =
    let doc = "Fault-schedule seed; same seed, same workload: same run, byte for byte." in
    Arg.(value & opt int 0xFA01 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let deadline_ms_arg =
    let doc = "Optional deadline in simulated milliseconds; queries past it report TIMEOUT." in
    Arg.(value & opt (some int) None & info [ "deadline-ms" ] ~docv:"MS" ~doc)
  in
  let parse_pause config s =
    match String.split_on_char ':' s with
    | [ node; from_us; dur_us ] -> begin
      match (int_of_string_opt node, int_of_string_opt from_us, int_of_string_opt dur_us) with
      | Some n, _, _ when not (in_cluster config n) -> outside_cluster config "--pause" n
      | Some _, Some f, Some d when f < 0 || d < 0 ->
        Error (Fmt.str "bad --pause %S (FROM_US and DUR_US must not be negative)" s)
      | Some n, Some f, Some d ->
        Ok (Faults.pause ~node:n ~from_:(Sim_time.us f) ~until:(Sim_time.us (f + d)))
      | _ -> Error (Fmt.str "bad --pause %S (expected NODE:FROM_US:DUR_US)" s)
    end
    | _ -> Error (Fmt.str "bad --pause %S (expected NODE:FROM_US:DUR_US)" s)
  in
  let run dataset text engine config batched drop dup delay_prob delay_us slow_nodes pauses seed
      deadline_ms =
    to_exit
      (let ( let* ) = Result.bind in
       let* graph = load_graph dataset in
       let* program = compile_query graph text in
       let* slow_nodes = Result.bind slow_nodes (slow_in_cluster config) in
       let* pauses = parse_all (parse_pause config) pauses in
       let* (module E : Engine.S) = resolve_engine ~config engine in
       let spec =
         {
           Faults.none with
           Faults.seed;
           drop;
           duplicate = dup;
           delay_prob;
           delay = Sim_time.us delay_us;
           slow_nodes;
           pauses;
         }
       in
       let common =
         {
           Engine.Common.default with
           Engine.Common.check = true;
           batched;
           faults = Some spec;
           deadline = Option.map Sim_time.ms deadline_ms;
         }
       in
       let* report =
         match E.run ~common ~graph [| Engine.submit program |] with
         | report -> Ok report
         | exception Engine.Check_violation message -> Error ("sanitizer: " ^ message)
         | exception Invalid_argument message -> Error message
       in
       let q = report.Engine.queries.(0) in
       (match Engine.completed_at q with
       | Some _ ->
         let oracle = Engine.sorted_rows (Local_engine.run graph program) in
         let got = Engine.sorted_rows q.Engine.rows in
         if got = oracle then
           Fmt.pr "completed: %d row(s), exact match against the oracle@."
             (List.length got)
         else
           Fmt.pr "completed: %d row(s), MISMATCH against the oracle (%d row(s))@."
             (List.length got) (List.length oracle)
       | None -> Fmt.pr "TIMEOUT (graceful: state reclaimed, no results)@.");
       Fmt.pr "%a@." Engine.pp_query q;
       let m = report.Engine.metrics in
       Fmt.pr
         "faults: drops=%d dups=%d delays=%d | recovery: retransmits=%d dedup-discards=%d \
          acks=%d abandoned=%d@."
         Metrics.(get m Counter.fault_drops) Metrics.(get m Counter.fault_dups)
         Metrics.(get m Counter.fault_delays) Metrics.(get m Counter.retransmits)
         Metrics.(get m Counter.dup_dropped) Metrics.(get m Counter.acks)
         Metrics.(get m Counter.abandoned);
       (* A completed query under an active sanitizer is the whole point:
          faults hit, recovery absorbed them, invariants held. *)
       match Engine.completed_at q with
       | Some _ -> Ok ()
       | None when deadline_ms <> None -> Ok ()
       | None -> Error "query did not complete and no deadline was set")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run a query under injected faults (drop/duplicate/delay, stragglers, pauses) with \
          the sanitizer on, and check results against the reference oracle")
    Term.(
      const run $ dataset_arg $ query_arg $ engine_arg $ cluster_arg $ batched_arg $ drop_arg
      $ dup_arg $ delay_prob_arg $ delay_us_arg $ slow_arg $ pause_arg $ seed_arg
      $ deadline_ms_arg)

let mc_cmd =
  let module Explore = Pstm_analysis.Explore in
  let module Mc = Pstm_mc.Mc in
  let scenario_arg =
    let doc =
      Fmt.str
        "Scenario to explore: %s, or \"auto\" to pick per mutant (khop when unmutated)."
        (String.concat ", " (List.map Mc.name Mc.scenarios))
    in
    Arg.(value & opt string "auto" & info [ "s"; "scenario" ] ~docv:"SCENARIO" ~doc)
  in
  let budget_arg =
    let doc = "Schedule budget: total engine runs, including shrink replays." in
    Arg.(value & opt int 64 & info [ "budget" ] ~docv:"N" ~doc)
  in
  let walks_arg =
    let doc = "Seeded random walks out of the budget (the rest is systematic DPOR)." in
    Arg.(value & opt int 16 & info [ "walks" ] ~docv:"N" ~doc)
  in
  let seed_arg =
    let doc = "Random-walk seed." in
    Arg.(value & opt int 0x90c & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let mutant_arg =
    let doc =
      Fmt.str
        "Seed a protocol mutant and demonstrate the checkers catch it: %s, or \"all\" for \
         the whole table."
        (String.concat ", " (List.map Mutation.name Mutation.all))
    in
    Arg.(value & opt (some string) None & info [ "m"; "mutant" ] ~docv:"MUTANT" ~doc)
  in
  let token_arg =
    let doc =
      "Replay one exact schedule instead of exploring (a token printed by a previous run, \
       e.g. \"12=1,40=2\" or \"default\")."
    in
    Arg.(value & opt (some string) None & info [ "t"; "token" ] ~docv:"TOKEN" ~doc)
  in
  let resolve_scenario name ~mutation =
    match (name, mutation) with
    | "auto", Some m -> Ok (Mc.for_mutation m)
    | "auto", None -> Ok Mc.default
    | _ -> begin
      match Mc.find name with
      | Some s -> Ok s
      | None ->
        Error
          (Fmt.str "unknown scenario %S (available: %s, auto)" name
             (String.concat ", " (List.map Mc.name Mc.scenarios)))
    end
  in
  let resolve_mutants = function
    | None -> Ok []
    | Some "all" -> Ok Mutation.all
    | Some name -> begin
      match Mutation.of_string name with
      | Some m -> Ok [ m ]
      | None ->
        Error
          (Fmt.str "unknown mutant %S (available: %s, all)" name
             (String.concat ", " (List.map Mutation.name Mutation.all)))
    end
  in
  let pp_report ppf (r : Explore.report) =
    Fmt.pf ppf "schedules=%d choice-points=%d dependence-classes=%d" r.Explore.schedules
      r.Explore.choice_points r.Explore.max_classes
  in
  let run scenario budget walks seed mutant token =
    to_exit
      (let ( let* ) = Result.bind in
       let* mutants = resolve_mutants mutant in
       match token with
       | Some tok ->
         (* Exact replay of one schedule, optionally under one mutant. *)
         let mutation = match mutants with [] -> None | m :: _ -> Some m in
         let* s = resolve_scenario scenario ~mutation in
         let* t = Explore.token_of_string tok in
         let o = Explore.replay ~run:(Mc.runner ?mutation s) t in
         (match (o.Explore.violation, mutation) with
         | None, _ ->
           Fmt.pr "scenario %s, schedule %s: conformant@." (Mc.name s)
             (Explore.token_to_string t);
           Ok ()
         | Some why, Some m ->
           Fmt.pr "scenario %s, schedule %s under mutant %s:@.  %s@." (Mc.name s)
             (Explore.token_to_string t) (Mutation.name m) why;
           Ok ()
         | Some why, None ->
           Error (Fmt.str "schedule %s violates: %s" (Explore.token_to_string t) why))
       | None -> begin
         match mutants with
         | [] ->
           (* Conformance sweep: the unmutated engine must survive every
              explored schedule. *)
           let* s = resolve_scenario scenario ~mutation:None in
           let report =
             Explore.explore ~budget ~random_walks:walks ~seed ~run:(Mc.runner s) ()
           in
           Fmt.pr "scenario %s: %a@." (Mc.name s) pp_report report;
           (match report.Explore.counterexample with
           | None ->
             Fmt.pr "no violation found within budget@.";
             Ok ()
           | Some cx ->
             Error
               (Fmt.str "violation on schedule %s (shrunk from %s, %d shrink replays): %s"
                  (Explore.token_to_string cx.Explore.cx_token)
                  (Explore.token_to_string cx.Explore.cx_raw)
                  cx.Explore.cx_shrink_tries cx.Explore.cx_detail))
         | mutants ->
           (* Mutation-catching table: every seeded protocol corruption
              must be detected within the budget, and the shrunk token
              must replay to the same failure. *)
           let escaped = ref [] in
           List.iter
             (fun m ->
               let s =
                 match resolve_scenario scenario ~mutation:(Some m) with
                 | Ok s -> s
                 | Error _ -> Mc.for_mutation m
               in
               let run_fn = Mc.runner ~mutation:m s in
               let report = Explore.explore ~budget ~random_walks:walks ~seed ~run:run_fn () in
               match report.Explore.counterexample with
               | Some cx ->
                 Fmt.pr "%-22s %-10s caught in %3d schedule(s)  replay: -m %s -t %S@.  %s@."
                   (Mutation.name m) (Mc.name s) report.Explore.schedules (Mutation.name m)
                   (Explore.token_to_string cx.Explore.cx_token)
                   cx.Explore.cx_detail
               | None ->
                 escaped := Mutation.name m :: !escaped;
                 Fmt.pr "%-22s %-10s ESCAPED after %d schedule(s) (%a)@." (Mutation.name m)
                   (Mc.name s) report.Explore.schedules pp_report report)
             mutants;
           match !escaped with
           | [] -> Ok ()
           | names ->
             Error (Fmt.str "mutant(s) escaped: %s" (String.concat ", " (List.rev names)))
       end)
  in
  Cmd.v
    (Cmd.info "mc"
       ~doc:
         "Explore same-timestamp event interleavings of the async engine (bounded DPOR + \
          random walks), checking protocol-monitor conformance and oracle-equal results on \
          every schedule; optionally seed protocol mutants to validate the checkers")
    Term.(
      const run $ scenario_arg $ budget_arg $ walks_arg $ seed_arg $ mutant_arg $ token_arg)

let repartition_cmd =
  let repeats_arg =
    let doc = "How many staggered submissions of the query make up the profiled workload." in
    Arg.(value & opt positive_int 8 & info [ "repeats" ] ~docv:"N" ~doc)
  in
  let max_imbalance_arg =
    let doc = "Per-partition vertex-count cap for refinement, as a factor of the mean." in
    Arg.(value & opt float 1.1 & info [ "max-imbalance" ] ~docv:"F" ~doc)
  in
  let run dataset text config repeats max_imbalance =
    to_exit
      (let ( let* ) = Result.bind in
       let* graph = load_graph dataset in
       let* program = compile_query graph text in
       let n_parts = config.Cluster.n_nodes * config.Cluster.workers_per_node in
       let subs =
         Array.init repeats (fun i -> Engine.submit ~at:(Sim_time.us (i * 20)) program)
       in
       let run_with ?common options =
         Async_engine.run ?common ~options ~cluster_config:config
           ~channel_config:Channel.default_config ~graph subs
       in
       let remote_bytes (r : Engine.report) =
         Metrics.message_bytes r.Engine.metrics Metrics.Traverser_msg
       in
       (* Profile the hash baseline, refine offline, then measure the
          refined table warm (frozen) and the online protocol cold. *)
       let obs = Pstm_obs.Recorder.create () in
       let hash =
         run_with
           ~common:(Engine.Common.with_obs obs Engine.Common.default)
           Async_engine.default_options
       in
       let traffic = Pstm_obs.Recorder.traffic obs in
       Fmt.pr "profiled: %d remote hop(s), %d byte(s), %d vertex pair(s)@."
         (Pstm_obs.Traffic.total_count traffic)
         (Pstm_obs.Traffic.total_bytes traffic)
         (Pstm_obs.Traffic.distinct_edges traffic);
       let { Repartition.table = refined; stats; _ } =
         Repartition.refine_profile ~max_imbalance ~max_heat_imbalance:1.5
           (Partition.create ~strategy:Partition.Hash ~n_parts
              ~n_vertices:(Graph.n_vertices graph) ())
           (Pstm_obs.Traffic.edges traffic)
       in
       Fmt.pr
         "refinement: cut %d -> %d of %d profiled byte(s) (%.1f%% cut reduction), %d \
          move(s), %d pass(es), imbalance %.2f -> %.2f@."
         stats.Repartition.cut_before stats.Repartition.cut_after
         stats.Repartition.total_weight
         (100.0
         *. (1.0
            -. float_of_int stats.Repartition.cut_after
               /. Float.max (float_of_int stats.Repartition.cut_before) 1.0))
         stats.Repartition.moves stats.Repartition.passes stats.Repartition.imbalance_before
         stats.Repartition.imbalance_after;
       let strategy partition = { Async_engine.default_options with Async_engine.partition } in
       let warm = run_with (strategy (Partition.Table refined)) in
       let cold = run_with (strategy Partition.Adaptive) in
       let report_line label (r : Engine.report) =
         let m = r.Engine.metrics in
         let bytes = remote_bytes r in
         Fmt.pr
           "%-15s remote traverser bytes %9d (%+.1f%% vs hash), p99 %.2fms, migrations \
            %d, forwarded %d@."
           label bytes
           (100.0 *. (float_of_int bytes /. Float.max (float_of_int (remote_bytes hash)) 1.0 -. 1.0))
           (Engine.p99_latency_ms r) Metrics.(get m Counter.migrations)
           Metrics.(get m Counter.forwarded)
       in
       report_line "hash:" hash;
       report_line "adaptive-warm:" warm;
       report_line "adaptive-cold:" cold;
       Ok ())
  in
  Cmd.v
    (Cmd.info "repartition"
       ~doc:
         "Profile a query workload's cross-partition traffic, refine the owner table, and \
          compare hash vs adaptive partitioning")
    Term.(
      const run $ dataset_arg $ query_arg $ cluster_arg $ repeats_arg $ max_imbalance_arg)

let ldbc_cmd =
  let per_query_arg =
    let doc = "Run each query several times with fresh parameters and print per-query mean/p99." in
    Arg.(value & flag & info [ "per-query" ] ~doc)
  in
  let repeats_arg =
    let doc = "Runs per query under --per-query." in
    Arg.(value & opt positive_int 5 & info [ "repeats" ] ~docv:"N" ~doc)
  in
  let run dataset config per_query repeats =
    to_exit
      (match List.assoc_opt dataset dataset_presets with
      | Some (`Snb scale) ->
        let data = Pstm_ldbc.Snb_gen.load scale in
        let prng = Prng.create 7 in
        let run_once program =
          Async_engine.run ~cluster_config:config ~channel_config:Channel.default_config
            ~graph:data.Pstm_ldbc.Snb_gen.graph
            [| Engine.submit program |]
        in
        if per_query then begin
          Fmt.pr "%-5s %8s %10s %10s %10s@." "query" "runs" "mean-ms" "p99-ms" "rows";
          List.iter
            (fun (name, make) ->
              let rows = ref 0 in
              let make = make data in
              let latencies =
                Array.init repeats (fun _ ->
                    let report = run_once (make prng) in
                    let q = report.Engine.queries.(0) in
                    rows := !rows + List.length q.Engine.rows;
                    Engine.latency_ms q)
              in
              Fmt.pr "%-5s %8d %10.3f %10.3f %10.1f@." name repeats (Stats.mean latencies)
                (Stats.percentile latencies 99.0)
                (float_of_int !rows /. float_of_int repeats))
            (Pstm_ldbc.Ic_queries.all @ Pstm_ldbc.Is_queries.all)
        end
        else
          List.iter
            (fun (name, make) ->
              let report = run_once (make data prng) in
              Fmt.pr "%-5s %a@." name Engine.pp_query report.Engine.queries.(0))
            (Pstm_ldbc.Ic_queries.all @ Pstm_ldbc.Is_queries.all);
        Ok ()
      | _ -> Error "ldbc requires an SNB dataset (snb-tiny, snb-s, snb-l)")
  in
  Cmd.v
    (Cmd.info "ldbc" ~doc:"Run one pass of the LDBC IC and IS queries")
    Term.(const run $ dataset_arg $ cluster_arg $ per_query_arg $ repeats_arg)

(* --- serve: open-loop multi-tenant service ----------------------------- *)

let serve_cmd =
  let module Service = Pstm_service.Service in
  let module Arrival = Pstm_service.Arrival in
  let rate_arg =
    let doc = "Offered load per tenant: Poisson arrival rate in queries/second (simulated)." in
    Arg.(value & opt positive_float 20_000.0 & info [ "rate" ] ~docv:"QPS" ~doc)
  in
  let duration_arg =
    let doc = "Arrival horizon in simulated milliseconds (queued work still drains after)." in
    Arg.(value & opt float 5.0 & info [ "duration" ] ~docv:"MS" ~doc)
  in
  let slo_arg =
    let doc = "Target p99 latency (the SLO) in simulated milliseconds." in
    Arg.(value & opt float 1.0 & info [ "slo" ] ~docv:"MS" ~doc)
  in
  let tenants_arg =
    let doc =
      "Number of tenants; tenant $(i,k) gets weighted-fair weight $(i,k)+1, so shares are \
       1:2:...:N."
    in
    Arg.(value & opt int 2 & info [ "tenants" ] ~docv:"N" ~doc)
  in
  let no_admission_arg =
    let doc = "Disable admission control (the collapse-under-overload baseline)." in
    Arg.(value & flag & info [ "no-admission" ] ~doc)
  in
  let patience_arg =
    let doc =
      "Client patience in simulated milliseconds: a query not finished by then is abandoned \
       (queued: dropped; mid-flight: scoped engine cancellation)."
    in
    Arg.(value & opt (some float) None & info [ "patience" ] ~docv:"MS" ~doc)
  in
  let seed_arg =
    let doc = "Arrival-process seed (same seed, same run)." in
    Arg.(value & opt int 0x5e12 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let check_arg =
    let doc = "Run with the sanitizer on (tracker/memo leak detection under cancellation)." in
    Arg.(value & flag & info [ "check" ] ~doc)
  in
  let run dataset text engine config rate duration slo tenants no_admission patience seed
      check =
    to_exit
      (let ( let* ) = Result.bind in
       let* graph = load_graph dataset in
       let* program = compile_query graph text in
       let* engine = resolve_engine ~config engine in
       if tenants < 1 then Error "serve: --tenants must be at least 1"
       else begin
         let ms_time v = Sim_time.of_float_ns (v *. 1e6) in
         let patience = Option.map ms_time patience in
         let service_config =
           Service.config ~max_inflight:(2 * config.Cluster.n_nodes) ~slo:(ms_time slo)
             ~admission:(not no_admission) ~headroom:1.5 ~seed ~horizon:(ms_time duration)
             (Array.init tenants (fun k ->
                  Service.tenant
                    ~weight:(float_of_int (k + 1))
                    ?patience
                    (Arrival.Poisson { rate_qps = rate })))
         in
         let common = { Engine.Common.default with Engine.Common.check } in
         match
           Service.run engine ~common ~graph ~config:service_config
             ~program:(fun ~tenant:_ ~seq:_ -> program)
             ()
         with
         | exception Engine.Check_violation message -> Error ("sanitizer: " ^ message)
         | r ->
           Fmt.pr
             "engine=%s offered=%d admitted=%d shed=%d (%.1f%%) completed=%d cancelled=%d \
              timed-out=%d@."
             r.Service.r_engine (Service.offered r) (Service.admitted r) (Service.shed r)
             (100.0 *. Service.shed_rate r)
             (Service.completed r) (Service.cancelled r) (Service.timed_out r);
           Fmt.pr "latency (admitted, ms): mean=%.3f p50=%.3f p99=%.3f  [slo p99 <= %.3f]@."
             (Service.mean_ms r) (Service.p50_ms r) (Service.p99_ms r) slo;
           Fmt.pr "%-7s %8s %9s %6s %10s %10s %8s %8s@." "tenant" "offered" "admitted" "shed"
             "completed" "cancelled" "p50-ms" "p99-ms";
           Array.iteri
             (fun i ts ->
               Fmt.pr "%-7d %8d %9d %6d %10d %10d %8.3f %8.3f@." i ts.Service.ts_offered
                 ts.Service.ts_admitted ts.Service.ts_shed ts.Service.ts_completed
                 ts.Service.ts_cancelled ts.Service.ts_p50_ms ts.Service.ts_p99_ms)
             r.Service.r_per_tenant;
           Ok ()
       end)
  in
  let query_arg =
    let doc = "Gremlin query every tenant issues (default: a 2-hop neighborhood count)." in
    Arg.(
      value
      & opt string "g.V().has('id', 1).out().out().count()"
      & info [ "q"; "query" ] ~docv:"QUERY" ~doc)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run an open-loop multi-tenant query service: weighted-fair scheduling, admission \
          control with load shedding, scoped cancellation")
    Term.(
      const run $ dataset_arg $ query_arg $ engine_arg $ cluster_arg $ rate_arg $ duration_arg
      $ slo_arg $ tenants_arg $ no_admission_arg $ patience_arg $ seed_arg
      $ check_arg)

let () =
  let info =
    Cmd.info "graphdance" ~version:"1.0.0"
      ~doc:"Distributed asynchronous graph queries on partitioned stateful traversal machines"
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            datasets_cmd; query_cmd; explain_cmd; trace_cmd; why_cmd; chaos_cmd; mc_cmd;
            repartition_cmd; ldbc_cmd; serve_cmd; verify_cmd;
          ]))
