(* LDBC SNB interactive workload driver.

   Mirrors the benchmark's load model: every query type is issued at its
   own predefined frequency, and the Time Compression Ratio (TCR) scales
   all inter-arrival intervals — a lower TCR issues queries faster and
   demands more throughput (§V-A1). A system "fails" a TCR when it cannot
   keep up with the issuance rate, which is what happens to the BSP
   baseline at TCR 0.03 in Figure 7.

   Update operations of the interactive workload are priced by the §IV-C
   cost model ([Updates]) and reported separately; the mixed run here
   issues the IC and IS read mix, as plotted in Figure 7. *)

type arrival = {
  name : string;
  make : Snb_gen.t -> Prng.t -> Program.t;
  base_interval : Sim_time.t; (* inter-arrival at TCR = 1 *)
}

(* Complex reads are rarer than short reads, as in the LDBC frequency
   table. *)
let workload_mix : arrival list =
  List.map
    (fun (name, make) -> { name; make; base_interval = Sim_time.ms 50 })
    Ic_queries.all
  @ List.map
      (fun (name, make) -> { name; make; base_interval = Sim_time.ms 8 })
      Is_queries.all

type mixed_result = {
  tcr : float;
  per_query : (string * Stats.summary) list; (* latency in simulated ms *)
  issued : int;
  completed : int;
  kept_up : bool; (* LDBC-style on-time rule: 95% done AND p99 within 50 ms *)
  report : Engine.report;
}

(* Build the submission schedule for a mixed run of [duration]. Each
   query is prepared once ([a.make data]); a submission only binds its
   drawn parameters. The Vec's dummy is an IC13 binding: it draws twice
   from [prng], as the schedule always has, so the draws that follow
   are unchanged. *)
let schedule data ~tcr ~duration ~seed =
  let prng = Prng.create seed in
  let submissions = Vec.create ~dummy:(Engine.submit (Ic_queries.ic13 data prng)) in
  List.iter
    (fun a ->
      let make = a.make data in
      let interval = Float.max 1.0 (float_of_int (Sim_time.to_ns a.base_interval) *. tcr) in
      let t = ref (Prng.float prng interval) in
      while int_of_float !t < Sim_time.to_ns duration do
        let program = make prng in
        Vec.push submissions (Engine.submit ~at:(Sim_time.of_float_ns !t) program);
        t := !t +. Prng.exponential prng ~mean:interval
      done)
    workload_mix;
  let arr = Vec.to_array submissions in
  (* Interleave deterministically by arrival time. *)
  Array.sort (fun a b -> Sim_time.compare a.Engine.at b.Engine.at) arr;
  arr

let summarize_mixed ~tcr report =
  let by_name = Hashtbl.create 32 in
  Array.iter
    (fun (q : Engine.query_report) ->
      let samples =
        match Hashtbl.find_opt by_name q.Engine.name with
        | Some s -> s
        | None ->
          let s = Vec.create ~dummy:0.0 in
          Hashtbl.add by_name q.Engine.name s;
          s
      in
      Vec.push samples (Engine.latency_ms q))
    report.Engine.queries;
  let names = List.map (fun a -> a.name) workload_mix in
  let per_query =
    List.filter_map
      (fun name ->
        Option.map
          (fun samples -> (name, Stats.summarize (Vec.to_array samples)))
          (Hashtbl.find_opt by_name name))
      names
  in
  let issued = Array.length report.Engine.queries in
  let completed =
    Array.fold_left
      (fun n (q : Engine.query_report) -> if Engine.is_completed q then n + 1 else n)
      0 report.Engine.queries
  in
  (* The paper cites the ~50 ms interactive budget (A1, SIGMOD'20): a
     system keeps up with a TCR only if nearly everything completes and
     tail latency stays inside that budget. *)
  let all_latencies =
    Array.map (fun q -> Engine.latency_ms q) report.Engine.queries
  in
  let p99 = Stats.percentile all_latencies 99.0 in
  {
    tcr;
    per_query;
    issued;
    completed;
    kept_up =
      issued = 0
      || (float_of_int completed >= 0.95 *. float_of_int issued && p99 <= 50.0);
    report;
  }

(* The mixed run stops shortly after issuance ends: whatever has not
   completed by then counts against the on-time rule. [common] carries
   the caller's obs/check/faults; its deadline is overridden here. *)
let mixed_common common ~duration =
  let common = Option.value common ~default:Engine.Common.default in
  { common with Engine.Common.deadline = Some (Sim_time.add duration (Sim_time.ms 500)) }

(* Run the mixed workload on the asynchronous (GraphDance) engine. *)
let run_mixed_async ?(options = Async_engine.default_options)
    ?(channel = Channel.default_config) ?common ~cluster_config ~duration ~tcr ~seed data =
  let submissions = schedule data ~tcr ~duration ~seed in
  let report =
    Async_engine.run ~options
      ~common:(mixed_common common ~duration)
      ~cluster_config ~channel_config:channel ~graph:data.Snb_gen.graph submissions
  in
  summarize_mixed ~tcr report

(* Run the mixed workload on the BSP engine (TigerGraph role by default,
   as in Figure 7). *)
let run_mixed_bsp ?(profile = Bsp_engine.Tigergraph_role) ?common ~cluster_config ~duration
    ~tcr ~seed data =
  let submissions = schedule data ~tcr ~duration ~seed in
  let report =
    Bsp_engine.run ~profile
      ~common:(mixed_common common ~duration)
      ~cluster_config ~graph:data.Snb_gen.graph submissions
  in
  summarize_mixed ~tcr report

(* --- Individual-query helpers (Figure 8) --- *)

(* Minimum latency: queries submitted one at a time, averaged over
   [repeats] parameter choices. *)
let sequential_latency ~run ~make ~repeats ~seed data =
  let prng = Prng.create seed in
  let make = make data in
  let samples =
    Array.init repeats (fun _ ->
        let program = make prng in
        let report = run [| Engine.submit program |] in
        Engine.latency_ms report.Engine.queries.(0))
  in
  Stats.mean samples

(* Maximum throughput: a closed batch of [streams] concurrent instances;
   completed queries per simulated second. *)
let max_throughput ~run ~make ~streams ~seed data =
  let prng = Prng.create seed in
  let make = make data in
  let submissions = Array.init streams (fun _ -> Engine.submit (make prng)) in
  let report = run submissions in
  Engine.throughput_qps report

(* --- Update operations (the UP side of the interactive workload) --- *)

type update_result = {
  per_kind : (string * Stats.summary) list; (* latency in simulated ms *)
  committed : int;
  aborted : int; (* always 0: updates run one at a time *)
}

(* Issue the update mix at the workload frequency implied by [tcr]. Each
   update is priced by [Updates.simulated_latency]; its endpoints are
   drawn over the dataset's persons (at most 500), which new vertices
   join. Updates run one at a time, so every one commits. *)
let run_updates ~duration ~tcr ~seed data =
  let population = ref (min 500 (Array.length data.Snb_gen.persons)) in
  let prng = Prng.create seed in
  let net = Netmodel.default in
  let costs = Cluster.default_costs in
  let base_interval = float_of_int (Sim_time.to_ns (Sim_time.ms 4)) in
  let interval = Float.max 1.0 (base_interval *. tcr) in
  let committed = ref 0 in
  let samples = Hashtbl.create 8 in
  let t = ref 0.0 in
  let kinds = Array.of_list Updates.all_kinds in
  while int_of_float !t < Sim_time.to_ns duration do
    let kind = Prng.pick prng kinds in
    Updates.draw_endpoints prng ~population kind;
    incr committed;
    let latency = Sim_time.to_ms (Updates.simulated_latency net costs kind) in
    let bucket =
      match Hashtbl.find_opt samples (Updates.kind_name kind) with
      | Some b -> b
      | None ->
        let b = Vec.create ~dummy:0.0 in
        Hashtbl.add samples (Updates.kind_name kind) b;
        b
    in
    Vec.push bucket latency;
    t := !t +. Prng.exponential prng ~mean:interval
  done;
  let per_kind =
    List.filter_map
      (fun kind ->
        let name = Updates.kind_name kind in
        Option.map
          (fun b -> (name, Stats.summarize (Vec.to_array b)))
          (Hashtbl.find_opt samples name))
      Updates.all_kinds
  in
  { per_kind; committed = !committed; aborted = 0 }
