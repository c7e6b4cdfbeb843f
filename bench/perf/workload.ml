(* The benchmark's four workloads, the metric catalogue, and one
   measured repetition.

   The workloads are the paper's two regimes and the service layer built
   on top of them, chosen so that each layer has one workload that
   exercises it and one that bypasses it:

   - ldbc-mix: the Fig 7 interactive read mix (IC1-14 + IS1-7) on SNB-S at
     TCR 0.03, open loop on the driver's schedule, plus the update mix.
     Many short heterogeneous plans, one compile per query, join-heavy
     IC plans, and enough queries for a real p99.
   - khop-batched: a closed batch of 3-hop Fig 1 queries with frontier
     batching on. Exercises the batch kernels, coalesced sends and the
     allocator; bypasses most of the event-queue path.
   - khop-scale64: closed batches of 4-hop queries on 64 nodes, scalar
     path, flat tracking. Dominated by the event queue, channel and
     progress tier; bypasses the batch kernels.
   - serve-overload: two open-loop tenants well past saturation with
     admission on. The only workload that drives shedding, weighted-fair
     dispatch and scoped cancellation.

   Every call into the system goes through a public entry point and is
   timed from outside (see {!Measure}). A repetition runs its workload
   once untraced; a traced repetition also runs the workload's traced
   variant twice, without and with the causal recorder. *)

open Pstm_engine
open Pstm_query
open Pstm_ldbc
open Pstm_service
module Causal = Pstm_obs.Causal
module Recorder = Pstm_obs.Recorder

(* --- Metric catalogue ------------------------------------------------------

   [Sim] metrics are simulated time or counts the simulator makes: they
   repeat exactly for a seed, across repetitions and between traced and
   untraced runs. [Host] metrics are measured on the host and vary. *)

type clock = Host | Sim

let catalogue =
  [
    (* end to end *)
    ("setup_s", "s", Host);
    ("wall_s", "s", Host);
    ("peak_heap_mb", "MB", Host);
    ("alloc_b_per_step", "B/step", Host);
    ("sim_p50_ms", "ms", Sim);
    ("sim_p99_ms", "ms", Sim);
    ("sim_makespan_ms", "ms", Sim);
    ("sim_traversers_per_s", "steps/s", Sim);
    ("goodput_qps", "qps", Sim);
    ("fail_frac", "ratio", Sim);
    (* simulator core *)
    ("sim.events", "count", Sim);
    ("sim.ns_per_event", "ns", Host);
    (* engine: step interpreter and batch kernels *)
    ("engine.steps", "count", Sim);
    ("engine.ns_per_step", "ns", Host);
    ("engine.minor_words_per_step", "words", Host);
    ("engine.major_words", "words", Host);
    ("engine.major_collections", "count", Host);
    ("engine.edges_scanned", "count", Sim);
    ("engine.memo_ops", "count", Sim);
    ("engine.busy_ms", "ms", Sim);
    ("engine.straggler_ratio", "ratio", Sim);
    ("engine.batches", "count", Sim);
    ("engine.travs_per_batch", "count", Sim);
    ("engine.coalesced_msgs", "count", Sim);
    (* channel and cluster network *)
    ("sim.packets", "count", Sim);
    ("sim.packet_bytes", "bytes", Sim);
    ("sim.local_msgs", "count", Sim);
    ("sim.msgs.traverser", "count", Sim);
    ("sim.msgs.progress", "count", Sim);
    ("sim.msgs.control", "count", Sim);
    ("sim.msgs.result", "count", Sim);
    ("sim.flushes", "count", Sim);
    (* progress tracking *)
    ("progress.root_rx", "count", Sim);
    ("progress.delegate_merges", "count", Sim);
    ("progress.delegate_forwards", "count", Sim);
    (* parse, plan, verify *)
    ("query.compile_s", "s", Host);
    ("query.compiles", "count", Sim);
    (* service layer *)
    ("service.self_s", "s", Host);
    ("service.offered", "count", Sim);
    ("service.admitted", "count", Sim);
    ("service.shed", "count", Sim);
    ("service.cancelled", "count", Sim);
    ("service.tenant0.p99_ms", "ms", Sim);
    ("service.tenant1.p99_ms", "ms", Sim);
    (* transactional updates *)
    ("txn.run_s", "s", Host);
    ("txn.committed", "count", Sim);
    ("txn.aborted", "count", Sim);
    (* traced runs only: critical-path split of simulated latency *)
    ("critpath.compute_ms", "ms", Sim);
    ("critpath.queue_ms", "ms", Sim);
    ("critpath.network_ms", "ms", Sim);
    ("critpath.retransmit_ms", "ms", Sim);
    ("critpath.barrier_ms", "ms", Sim);
    ("critpath.tracker_ms", "ms", Sim);
    ("trace.causal_nodes", "count", Sim);
    ("trace.dropped", "count", Sim);
    ("trace.overhead_ratio", "ratio", Host);
  ]

let traced_only name = String.starts_with ~prefix:"critpath." name || String.starts_with ~prefix:"trace." name

(* --- Datasets ------------------------------------------------------------- *)

(* [Tiny] is the @perf-smoke size: the same code paths in milliseconds. *)
type size = Full | Tiny

type data = { snb : Snb_gen.t; lj : Graph.t; tiny : Graph.t }

(* Set-up builds every dataset afresh (no process-wide cache), so its cost
   is the same whichever workload follows. *)
let setup = function
  | Full ->
    {
      snb = Snb_gen.generate Snb_gen.snb_s;
      lj = Pstm_gen.Datasets.build Pstm_gen.Datasets.lj_like;
      tiny = Pstm_gen.Datasets.build Pstm_gen.Datasets.tiny;
    }
  | Tiny ->
    let tiny = Pstm_gen.Datasets.build Pstm_gen.Datasets.tiny in
    { snb = Snb_gen.generate Snb_gen.snb_tiny; lj = tiny; tiny }

(* --- Workload parameters ---------------------------------------------------- *)

type spec =
  | Ldbc of { window : Sim_time.t; tcr : float; updates : bool }
  | Khop of { queries : int; hops : int; batched : bool; batches : int }
      (* on [data.lj]: [batches] closed batches of [queries] concurrent
         queries, one after the other, each on its own start vertices *)
  | Serve of { horizon : Sim_time.t; starts : int }

type params = { nodes : int; workers : int; spec : spec }

type t = { name : string; params : size -> traced:bool -> params }

let workloads =
  [
    {
      name = "ldbc-mix";
      (* The untraced window is the Fig 7 load at TCR 0.03. Its latencies
         rise and fall together with the load the seed's parameters make,
         so it is 200 ms long: over ten seeds the per-class median spread
         8.7% at 100 ms. The traced window is shortened so the causal DAG
         stays near 1M nodes. *)
      params =
        (fun size ~traced ->
          match size with
          | Full ->
            let window = Sim_time.ms (if traced then 5 else 200) in
            { nodes = 8; workers = 16; spec = Ldbc { window; tcr = 0.03; updates = not traced } }
          | Tiny ->
            { nodes = 2; workers = 2;
              spec = Ldbc { window = Sim_time.ms 2; tcr = 0.03; updates = not traced } });
    };
    {
      name = "khop-batched";
      params =
        (fun size ~traced:_ ->
          match size with
          | Full ->
            { nodes = 8; workers = 8;
              spec = Khop { queries = 32; hops = 3; batched = true; batches = 1 } }
          | Tiny ->
            { nodes = 2; workers = 2;
              spec = Khop { queries = 4; hops = 2; batched = true; batches = 1 } });
    };
    {
      name = "khop-scale64";
      (* One batch's simulated makespan is a chaotic function of its start
         vertices: the eight queries finish within a few microseconds of
         each other, and over 83 seeds a batch took 7.6 to 12.7 ms with no
         relation to any work proxy of its starts. So a repetition runs
         several batches on different starts and reports the median batch.
         The traced variant runs one batch of 2 queries. *)
      params =
        (fun size ~traced ->
          match size with
          | Full ->
            { nodes = 64; workers = 4;
              spec =
                (if traced then Khop { queries = 2; hops = 4; batched = false; batches = 1 }
                 else Khop { queries = 8; hops = 4; batched = false; batches = 5 }) }
          | Tiny ->
            { nodes = 4; workers = 2;
              spec = Khop { queries = 2; hops = 3; batched = false; batches = (if traced then 1 else 3) } });
    };
    {
      name = "serve-overload";
      params =
        (fun size ~traced ->
          match size with
          | Full ->
            { nodes = 8; workers = 16;
              spec = Serve { horizon = Sim_time.ms (if traced then 10 else 200); starts = 64 } }
          | Tiny -> { nodes = 2; workers = 2; spec = Serve { horizon = Sim_time.ms 1; starts = 8 } });
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) workloads

let describe p =
  let cluster = Printf.sprintf "%dx%d workers" p.nodes p.workers in
  match p.spec with
  | Ldbc { window; tcr; updates } ->
    Printf.sprintf "SNB read mix, TCR %g, %.0f ms issuance%s, %s" tcr (Sim_time.to_ms window)
      (if updates then " + updates" else "") cluster
  | Khop { queries; hops; batched; batches } ->
    Printf.sprintf "%s%d concurrent %d-hop, %s, %s"
      (if batches > 1 then Printf.sprintf "median of %d batches of " batches else "")
      queries hops
      (if batched then "batched" else "scalar") cluster
  | Serve { horizon; starts } ->
    Printf.sprintf "2 tenants over %d starts, %.0f ms horizon, %s" starts
      (Sim_time.to_ms horizon) cluster

(* --- Queries ------------------------------------------------------------------ *)

(* The Figure 1 k-hop query, the paper's running example. *)
let fig1 graph ~name ~start ~hops =
  Compile.compile ~name graph
    Dsl.(
      v_lookup ~key:"id" (int start)
      |> repeat_out "link" ~times:hops
      |> has "id" (ne (int start))
      |> top_k "weight" 10
      |> build)

(* Seeded start vertices, one per stratum: the vertices with out-edges
   (an isolated start's k-hop is empty), sorted by their number of 2-hop
   paths, a cheap proxy for the work of a k-hop from them, are cut into
   [n] equal strata and one vertex is drawn from each. Every vertex is
   about as likely to be drawn as under uniform sampling, but every seed's
   set has the same work profile, so a batch's total work moves little
   from seed to seed. Successive calls on one [prng] draw successive
   sets. *)
let starts graph ~prng ~n =
  let degree = Graph.out_degree graph in
  let paths2 v =
    Array.fold_left (fun n u -> n + degree u) 0 (Graph.adjacent graph ~dir:Graph.Out v)
  in
  let vs = List.filter (fun v -> degree v > 0) (List.init (Graph.n_vertices graph) Fun.id) in
  let keyed = List.map (fun v -> (paths2 v, v)) vs in
  let vs = Array.of_list (List.map snd (List.sort compare keyed)) in
  let len = Array.length vs in
  Array.init n (fun i ->
      let lo = i * len / n and hi = (i + 1) * len / n in
      vs.(lo + Prng.int prng (hi - lo)))

(* --- One run -------------------------------------------------------------------- *)

(* One engine run: its report and the programs behind its queries. *)
type part = {
  report : Engine.report;
  programs : Program.t array;
  program_index : Engine.query_report -> int; (* into [programs] *)
}

type run = {
  metrics : (string * float) list;
  parts : part list; (* one, or one per batch of a multi-batch k-hop run *)
  graph : Graph.t;
  attempted : int;
  failed : int; (* unfinished closed-loop queries and aborted updates *)
}

let fi = float_of_int
let per n x = if n = 0 then 0.0 else x /. fi n
let per_s n t = if t <= 0 then 0.0 else fi n /. Sim_time.to_s t

let cluster p = { Cluster.default_config with Cluster.n_nodes = p.nodes; workers_per_node = p.workers }

(* Layer metrics read from the engine's own counters after the run, plus
   the host cost of the engine call measured around it. *)
let engine_metrics ~engine_s ~(gc : _ Measure.timed) (r : Engine.report) =
  let m = r.Engine.metrics in
  let steps = Metrics.steps m in
  let busy = Array.map (fun b -> fi (Sim_time.to_ns b)) r.Engine.worker_busy in
  let busy_mean = Stats.mean busy in
  let msgs k = fi (Metrics.messages m k) in
  [
    ("sim.events", fi r.Engine.events);
    ("sim.ns_per_event", per r.Engine.events (engine_s *. 1e9));
    ("engine.steps", fi steps);
    ("engine.ns_per_step", per steps (engine_s *. 1e9));
    ("engine.minor_words_per_step", per steps gc.Measure.minor_words);
    ("engine.major_words", gc.Measure.major_words);
    ("engine.major_collections", fi gc.Measure.major_collections);
    ("engine.edges_scanned", fi (Metrics.edges_scanned m));
    ("engine.memo_ops", fi (Metrics.memo_ops m));
    ("engine.busy_ms", fi (Metrics.busy_ns m) /. 1e6);
    ( "engine.straggler_ratio",
      if busy_mean <= 0.0 then 1.0 else Array.fold_left Float.max 0.0 busy /. busy_mean );
    ("engine.batches", fi (Metrics.batches m));
    ("engine.travs_per_batch", per (Metrics.batches m) (fi (Metrics.batched_traversers m)));
    ("engine.coalesced_msgs", fi (Metrics.coalesced_msgs m));
    ("sim.packets", fi (Metrics.packets m));
    ("sim.packet_bytes", fi (Metrics.packet_bytes m));
    ("sim.local_msgs", fi (Metrics.local_messages m));
    ("sim.msgs.traverser", msgs Metrics.Traverser_msg);
    ("sim.msgs.progress", msgs Metrics.Progress_msg);
    ("sim.msgs.control", msgs Metrics.Control_msg);
    ("sim.msgs.result", msgs Metrics.Result_msg);
    ("sim.flushes", fi (Metrics.flushes m));
    ("progress.root_rx", fi (Metrics.tracker_updates m));
    ("progress.delegate_merges", fi (Metrics.delegate_merges m));
    ("progress.delegate_forwards", fi (Metrics.delegate_forwards m));
  ]

(* Median latency per query class (tenant x query type, the program name
   up to any '/'), geometric mean over classes; for a one-class workload
   the plain median. A pooled median of the LDBC mix sits on the cliff
   between sub-microsecond IS lookups and IC plans, and of the service
   between its two tenants, so it jumps with the seed's class mix (30%
   and 15% spread over ten seeds); per class it does not. *)
let class_p50_ms (r : Engine.report) =
  let classes = Hashtbl.create 32 in
  Array.iter
    (fun q ->
      match Engine.latency q with
      | None -> ()
      | Some l ->
        let key = (q.Engine.tenant, List.hd (String.split_on_char '/' q.Engine.name)) in
        let prev = Option.value (Hashtbl.find_opt classes key) ~default:[] in
        Hashtbl.replace classes key (Sim_time.to_ms l :: prev))
    r.Engine.queries;
  let p50s = Hashtbl.fold (fun _ ls acc -> Stats.percentile (Array.of_list ls) 50.0 :: acc) classes [] in
  (* Sorted, so the float sum does not depend on table order. *)
  let logs = List.map log (List.sort Float.compare p50s) in
  if p50s = [] then 0.0 else exp (List.fold_left ( +. ) 0.0 logs /. fi (List.length logs))

(* End-to-end simulated metrics; [good] is the number of queries that
   count towards goodput and [window] the time they are spread over, by
   default the makespan. The makespan is the last completion: a run with
   a deadline reports the deadline as its makespan even when everything
   finished long before. *)
let sim_metrics (r : Engine.report) ~good ~window =
  let lat = Engine.completed_latencies_ms r in
  let last =
    Array.fold_left
      (fun m q -> match Engine.completed_at q with Some c -> max m c | None -> m)
      Sim_time.zero r.Engine.queries
  in
  [
    ("sim_p50_ms", class_p50_ms r);
    ("sim_p99_ms", Stats.percentile lat 99.0);
    ("sim_makespan_ms", Sim_time.to_ms last);
    ("sim_traversers_per_s", per_s (Metrics.steps r.Engine.metrics) last);
    ("goodput_qps", per_s good (Option.value window ~default:last));
  ]

(* The measured phase's host cost, summed over its timed calls: wall time,
   and bytes allocated per traverser step. *)
let phase_metrics ~steps (calls : (float * float) list) =
  let wall = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 calls in
  let words = List.fold_left (fun acc (_, a) -> acc +. a) 0.0 calls in
  [ ("wall_s", wall); ("alloc_b_per_step", per steps (words *. fi (Sys.word_size / 8))) ]

let cost (t : _ Measure.timed) = (t.Measure.wall_s, t.Measure.alloc_words)

let count p a = Array.fold_left (fun n x -> if p x then n + 1 else n) 0 a

let within_ms limit q =
  match Engine.latency q with Some l -> Sim_time.to_ms l <= limit | None -> false

let run_ldbc p ~common ~seed data ~window ~tcr ~updates =
  let compile = Measure.timed (fun () -> Driver.schedule data.snb ~tcr ~duration:window ~seed) in
  let subs = compile.Measure.value in
  (* The driver's own cutoff for a mixed run: issuance plus 500 ms. *)
  let common = Engine.Common.with_deadline (Some (Sim_time.add window (Sim_time.ms 500))) common in
  let engine =
    Measure.timed (fun () ->
        Async_engine.run ~common ~cluster_config:(cluster p) ~channel_config:Channel.default_config
          ~graph:data.snb.Snb_gen.graph subs)
  in
  let report = engine.Measure.value in
  let txn =
    if updates then Some (Measure.timed (fun () -> Driver.run_updates ~duration:window ~tcr ~seed data.snb))
    else None
  in
  let committed, aborted =
    match txn with
    | Some t -> (t.Measure.value.Driver.committed, t.Measure.value.Driver.aborted)
    | None -> (0, 0)
  in
  let issued = Array.length subs in
  let unfinished = Engine.n_unfinished report in
  (* 50 ms is the interactive budget the driver's keep-up rule uses. *)
  let good = count (within_ms 50.0) report.Engine.queries in
  {
    metrics =
      phase_metrics ~steps:(Metrics.steps report.Engine.metrics)
        ([ cost compile; cost engine ] @ Option.to_list (Option.map cost txn))
      @ [
        ("query.compile_s", compile.Measure.wall_s);
        ("query.compiles", fi issued);
        ("txn.run_s", Option.fold ~none:0.0 ~some:(fun t -> t.Measure.wall_s) txn);
        ("txn.committed", fi committed);
        ("txn.aborted", fi aborted);
        ("fail_frac", per (issued + committed + aborted) (fi (unfinished + aborted)));
      ]
      @ sim_metrics report ~good ~window:(Some window)
      @ engine_metrics ~engine_s:engine.Measure.wall_s ~gc:engine report;
    parts =
      [ { report; programs = Array.map (fun s -> s.Engine.program) subs; program_index = (fun q -> q.Engine.qid) } ];
    graph = data.snb.Snb_gen.graph;
    attempted = issued + committed + aborted;
    failed = unfinished + aborted;
  }

let run_khop p ~common ~starts ~hops ~batched graph =
  let queries = Array.length starts in
  let name = Printf.sprintf "%d-hop" hops in
  let compile =
    Measure.timed (fun () -> Array.map (fun start -> fig1 graph ~name ~start ~hops) starts)
  in
  let programs = compile.Measure.value in
  let common = Engine.Common.with_batched batched common in
  let engine =
    Measure.timed (fun () ->
        Async_engine.run ~common ~cluster_config:(cluster p) ~channel_config:Channel.default_config
          ~graph (Array.map Engine.submit programs))
  in
  let report = engine.Measure.value in
  let unfinished = Engine.n_unfinished report in
  {
    metrics =
      phase_metrics ~steps:(Metrics.steps report.Engine.metrics) [ cost compile; cost engine ]
      @ [
        ("query.compile_s", compile.Measure.wall_s);
        ("query.compiles", fi queries);
        ("fail_frac", per queries (fi unfinished));
      ]
      @ sim_metrics report ~good:(Engine.n_completed report) ~window:None
      @ engine_metrics ~engine_s:engine.Measure.wall_s ~gc:engine report;
    parts = [ { report; programs; program_index = (fun q -> q.Engine.qid) } ];
    graph;
    attempted = queries;
    failed = unfinished;
  }

(* Several batches as one run: every metric is the median batch's, so the
   run reads like one batch; the queries and parts of all batches count. *)
let median_batch = function
  | [] -> invalid_arg "median_batch"
  | [ run ] -> run
  | first :: _ as runs ->
    let median name = Stats.percentile (Array.of_list (List.map (fun r -> List.assoc name r.metrics) runs)) 50.0 in
    let sum f = List.fold_left (fun n r -> n + f r) 0 runs in
    {
      first with
      metrics = List.map (fun (name, _) -> (name, median name)) first.metrics;
      parts = List.concat_map (fun r -> r.parts) runs;
      attempted = sum (fun r -> r.attempted);
      failed = sum (fun r -> r.failed);
    }

let slo = Sim_time.ms 1

let run_serve p ~common ~seed data ~horizon ~starts:n =
  let graph = data.tiny in
  let starts = starts graph ~prng:(Prng.create seed) ~n in
  (* Each program's name carries its index, so the oracle can find the
     program behind an engine qid after the service has interleaved them. *)
  let compile =
    Measure.timed (fun () ->
        Array.mapi (fun i start -> fig1 graph ~name:(Printf.sprintf "2-hop/%d" i) ~start ~hops:2) starts)
  in
  let programs = compile.Measure.value in
  let registry = Registry.make ~cluster_config:(cluster p) () in
  let acct = Measure.account () in
  let engine = Measure.timed_engine acct (Registry.find_exn ~registry "graphdance") in
  let config =
    Service.config ~max_inflight:4 ~slo ~admission:true ~headroom:1.5 ~seed ~horizon
      [|
        (* Bulk: a Poisson stream far past saturation whose clients give
           up after 2 ms, so shedding and mid-flight cancellation fire. *)
        Service.tenant ~patience:(Sim_time.ms 2) (Arrival.Poisson { rate_qps = 48_000.0 });
        (* Interactive: bursty, twice the fair share, strictly first. *)
        Service.tenant ~weight:2.0 ~priority:1
          (Arrival.Bursty
             { base_qps = 8_000.0; burst_qps = 64_000.0; mean_dwell = Sim_time.us 200 });
      |]
  in
  let picks = Array.init 2 (fun tenant -> Prng.create ((seed * 2) + tenant + 1)) in
  let program ~tenant ~seq:_ = programs.(Prng.int picks.(tenant) n) in
  let svc = Measure.timed (fun () -> Service.run engine ~common ~graph ~config ~program ()) in
  let r = svc.Measure.value in
  let report = r.Service.r_report in
  let engine_s = Measure.seconds acct.Measure.engine_ns in
  let tenant_p99 i =
    if i < Array.length r.Service.r_per_tenant then r.Service.r_per_tenant.(i).Service.ts_p99_ms
    else 0.0
  in
  let offered = Service.offered r in
  let refused = Service.shed r + Service.cancelled r + Service.timed_out r in
  let good = count (within_ms (Sim_time.to_ms slo)) report.Engine.queries in
  {
    metrics =
      phase_metrics ~steps:(Metrics.steps report.Engine.metrics) [ cost compile; cost svc ]
      @ [
        ("query.compile_s", compile.Measure.wall_s);
        ("query.compiles", fi n);
        ("service.self_s", svc.Measure.wall_s -. engine_s);
        ("service.offered", fi offered);
        ("service.admitted", fi (Service.admitted r));
        ("service.shed", fi (Service.shed r));
        ("service.cancelled", fi (Service.cancelled r));
        ("service.tenant0.p99_ms", tenant_p99 0);
        ("service.tenant1.p99_ms", tenant_p99 1);
        ("fail_frac", per offered (fi refused));
      ]
      @ sim_metrics report ~good ~window:(Some horizon)
      @ engine_metrics ~engine_s ~gc:svc report;
    parts =
      [
        {
          report;
          programs;
          program_index =
            (fun q ->
              let name = q.Engine.name in
              let slash = String.index name '/' in
              int_of_string (String.sub name (slash + 1) (String.length name - slash - 1)));
        };
      ];
    graph;
    attempted = offered;
    failed = Service.timed_out r;
  }

let execute p ~obs ~seed data =
  let common = Engine.Common.with_obs obs Engine.Common.default in
  match p.spec with
  | Ldbc { window; tcr; updates } -> run_ldbc p ~common ~seed data ~window ~tcr ~updates
  | Khop { queries; hops; batched; batches } ->
    let prng = Prng.create seed in
    median_batch
      (List.init batches (fun i ->
           (* Untimed: each batch starts from a compact heap, as the first
              does, so the peak heap is the largest batch's. *)
           if i > 0 then Gc.compact ();
           run_khop p ~common ~starts:(starts data.lj ~prng ~n:queries) ~hops ~batched data.lj))
  | Serve { horizon; starts } -> run_serve p ~common ~seed data ~horizon ~starts

(* --- Cross-check against a recorded result ------------------------------------ *)

(* BENCH_10's flat 64-node row (makespan ms, root-tracker receipts), made
   by bench scale from 8 start vertices drawn uniformly at seed 23. Its
   makespan is the engine report's: the instant the cluster went quiet,
   a little after the last completion that [sim_makespan_ms] reports. *)
let bench10_flat64 = (9.122125, 599_193)

(* Run khop-scale64's configuration on bench scale's own start vertices,
   drawn with its uniform sampler, and return the row to compare. *)
let crosscheck () =
  let graph = Pstm_gen.Datasets.build Pstm_gen.Datasets.lj_like in
  let prng = Prng.create 23 in
  let uniform () =
    let rec pick () =
      let v = Prng.int prng (Graph.n_vertices graph) in
      if Graph.out_degree graph v > 0 then v else pick ()
    in
    pick ()
  in
  let starts = Array.init 8 (fun _ -> uniform ()) in
  let p = (Option.get (find "khop-scale64")).params Full ~traced:false in
  match p.spec with
  | Khop { hops; batched; _ } ->
    let report = (List.hd (run_khop p ~common:Engine.Common.default ~starts ~hops ~batched graph).parts).report in
    (Sim_time.to_ms report.Engine.makespan, Metrics.tracker_updates report.Engine.metrics)
  | Ldbc _ | Serve _ -> assert false

(* --- Checks ----------------------------------------------------------------------- *)

(* Completed queries whose sorted rows differ from the reference
   interpreter's. Runs outside every timed region. *)
let oracle_mismatches run =
  let part_mismatches part =
    let expected = Array.make (Array.length part.programs) None in
    let rows i =
      match expected.(i) with
      | Some r -> r
      | None ->
        let r = Engine.sorted_rows (Local_engine.run run.graph part.programs.(i)) in
        expected.(i) <- Some r;
        r
    in
    count
      (fun q ->
        Engine.is_completed q && Engine.sorted_rows q.Engine.rows <> rows (part.program_index q))
      part.report.Engine.queries
  in
  List.fold_left (fun n part -> n + part_mismatches part) 0 run.parts

(* A digest of everything simulated: the [Sim] metrics and every query's
   outcome and rows. Equal digests mean the simulation repeated exactly. *)
let digest metrics run =
  let sims = List.filter (fun (name, _, clock) -> clock = Sim && not (traced_only name)) catalogue in
  let values = List.map (fun (name, _, _) -> (name, List.assoc_opt name metrics)) sims in
  let queries =
    List.map
      (fun part ->
        Array.map
          (fun q -> (q.Engine.qid, q.Engine.name, q.Engine.outcome, Engine.sorted_rows q.Engine.rows))
          part.report.Engine.queries)
      run.parts
  in
  Digest.to_hex (Digest.string (Marshal.to_string (values, queries) [ Marshal.No_sharing ]))

(* Mean critical-path split per completed query, in the order of
   {!Causal.categories}. The causal DAG starts when a query launches; a
   query the service held in its queue first adds that wait to [queue],
   so each query's split sums exactly to its end-to-end latency. Returns
   the split and the number of queries whose split did not. *)
let critpath causal (r : Engine.report) =
  let sums = Array.make (List.length Causal.categories) 0 in
  let n = ref 0 and inexact = ref 0 in
  Array.iter
    (fun q ->
      match Engine.latency q with
      | None -> ()
      | Some latency -> (
        match Causal.attribution causal ~qid:q.Engine.qid, Causal.critical_path causal ~qid:q.Engine.qid with
        | Some attr, Some path ->
          let launched = match path with s :: _ -> s.Causal.seg_t0 | [] -> q.Engine.submitted in
          let wait = Sim_time.diff launched q.Engine.submitted in
          if wait < 0 || Sim_time.add wait (Causal.attribution_total attr) <> latency then incr inexact;
          List.iteri (fun i (cat, t) ->
              sums.(i) <- sums.(i) + t + if cat = Causal.Queue then wait else 0) attr;
          incr n
        | _ -> incr inexact))
    r.Engine.queries;
  let mean i = per !n (Sim_time.to_ms sums.(i)) in
  ( [
      ("critpath.compute_ms", mean 0);
      ("critpath.queue_ms", mean 1);
      ("critpath.network_ms", mean 2);
      ("critpath.retransmit_ms", mean 3);
      ("critpath.barrier_ms", mean 4);
      ("critpath.tracker_ms", mean 5);
    ],
    !inexact )

(* --- One repetition ------------------------------------------------------------------ *)

type sample = {
  values : (string * float) list; (* every catalogue metric, in catalogue order *)
  digest : string;
  attempted : int;
  failed : int; (* including oracle mismatches and trace-check failures *)
  mismatches : int;
  notes : string list; (* what failed, for the report *)
}

(* Causal nodes are stored in growable vectors; the cap only guards
   against a runaway DAG, and [trace.dropped] must stay 0. *)
let causal_capacity = 1 lsl 24

(* [setup_s] is the median of this many set-ups in the child. All but the
   last are thrown away and the heap compacted after each, so each starts
   from the same near-empty heap and the peak heap stays the run's. The
   smoke size sets up once, to stay fast. *)
let setup_runs = function Full -> 3 | Tiny -> 1

let rep w ~size ~seed ~trace ~oracle =
  let discarded =
    List.init (setup_runs size - 1) (fun _ ->
        let s = (Measure.timed (fun () -> ignore (setup size))).Measure.wall_s in
        Gc.compact ();
        s)
  in
  let set_up = Measure.timed (fun () -> setup size) in
  let setup_s = Stats.percentile (Array.of_list (set_up.Measure.wall_s :: discarded)) 50.0 in
  let data = set_up.Measure.value in
  let full = execute (w.params size ~traced:false) ~obs:Recorder.disabled ~seed data in
  let peak_heap_mb = Measure.peak_heap_mb () in
  let mismatches = if oracle then oracle_mismatches full else 0 in
  let notes = ref [] in
  let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt in
  if mismatches > 0 then note "%d completed queries differ from the oracle" mismatches;
  if full.failed > 0 then note "%d queries unfinished or updates aborted" full.failed;
  let traced_metrics, trace_failures =
    if not trace then ([], 0)
    else begin
      let p = w.params size ~traced:true in
      let plain =
        if p = w.params size ~traced:false then full else execute p ~obs:Recorder.disabled ~seed data
      in
      let obs = Recorder.create ~causal:true ~causal_capacity () in
      let traced = execute p ~obs ~seed data in
      let causal = Recorder.causal obs in
      (* Query ids restart with each batch, so a traced variant runs one. *)
      let report = match traced.parts with [ part ] -> part.report | _ -> invalid_arg "traced batches" in
      let split, inexact = critpath causal report in
      let diverged = digest plain.metrics plain <> digest traced.metrics traced in
      if diverged then note "traced run diverged from the untraced run";
      if inexact > 0 then note "%d critical paths do not sum to their latency" inexact;
      if Causal.dropped causal > 0 then note "causal DAG dropped %d nodes" (Causal.dropped causal);
      let wall r = List.assoc "wall_s" r.metrics in
      ( split
        @ [
            ("trace.causal_nodes", fi (Causal.n_nodes causal));
            ("trace.dropped", fi (Causal.dropped causal));
            ("trace.overhead_ratio", wall traced /. wall plain);
          ],
        Bool.to_int diverged + inexact + Bool.to_int (Causal.dropped causal > 0) )
    end
  in
  let measured =
    (("setup_s", setup_s) :: ("peak_heap_mb", peak_heap_mb) :: full.metrics)
    @ traced_metrics
  in
  let values =
    List.map
      (fun (name, _, _) -> (name, Option.value (List.assoc_opt name measured) ~default:0.0))
      catalogue
  in
  let non_finite = List.filter (fun (_, v) -> not (Float.is_finite v)) values in
  List.iter (fun (name, _) -> note "%s is not finite" name) non_finite;
  {
    values;
    digest = digest values full;
    attempted = full.attempted;
    failed = full.failed + mismatches + trace_failures + List.length non_finite;
    mismatches;
    notes = List.rev !notes;
  }
