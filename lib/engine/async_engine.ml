(* The asynchronous PSTM runtime — GraphDance's execution engine (§IV).

   One single-threaded worker per graph partition, each with its own memo
   and weight coalescer. Traversers route to the worker that owns their
   next step's partition key (the h_psi of §III-A), execute there through
   the shared step interpreter, and spawn children asynchronously — no
   global barriers. Termination per phase is detected by the weight
   tracker on the query's coordinator worker; aggregation phases combine
   per-partition partials on demand (§III-C).

   The same runtime also hosts the paper's comparison systems, exactly the
   way the paper itself implemented Banyan "on GraphDance's codebase":

   - [Banyan_like]: per-operator instantiation in every worker, charged as
     a scheduling overhead per quantum proportional to the number of live
     operators (the cause of its limited scaling in Fig. 9), with no
     per-traverser progress cost.
   - [Gaia_like]: the same dataflow overhead plus centralized execution of
     the stateful operators (dedup / join / aggregation run on worker 0),
     GAIA's scalability ceiling in Fig. 9.
   - [shared_state]: the non-partitioned graph model of Fig. 8 — memos are
     shared per node, so every access pays a latch whose cost grows with
     the number of contending workers, and data access loses locality.
   - [weight_coalescing = false]: the Fig. 10/11 ablation — every finished
     weight becomes its own message to the tracker. *)

module Protocol = Pstm_analysis.Protocol

type flavor =
  | Graphdance
  | Banyan_like
  | Gaia_like

let flavor_name = function
  | Graphdance -> "graphdance"
  | Banyan_like -> "banyan-like"
  | Gaia_like -> "gaia-like"

(* Online repartitioning knobs, consulted when [partition = Adaptive].
   Rounds trigger lazily off the remote-dispatch path: once at least
   [min_traffic] remote hops have been profiled since the last round and
   [refine_interval] has elapsed, the directory refines the owner table
   and the moved vertices migrate (memo entries ride the channel as
   costed messages; see the migration payloads below). *)
type adaptive_options = {
  refine_interval : Sim_time.t; (* min sim-time between refinement rounds *)
  min_traffic : int; (* profiled remote hops before a round may trigger *)
}

(* A round needs a substantial fresh profile before it may fire:
   refining on a few hundred early observations chases noise — thousands
   of vertices migrate toward a local optimum of a sample that does not
   resemble the workload, and the next round drags them back. *)
let default_adaptive = { refine_interval = Sim_time.us 50; min_traffic = 4096 }

(* Refinement caps: per-partition size and profiled traffic over their
   means, and vertex moves per round. *)
let max_imbalance = 1.1
let max_heat_imbalance = 1.5
let max_moves = 1024

type options = {
  flavor : flavor;
  weight_coalescing : bool;
  shared_state : bool;
  memory_capacity : int option; (* per-node memory, for the single-node study *)
  partition : Partition.strategy; (* the H of the partitioned graph model *)
  adaptive : adaptive_options; (* online repartitioning (Adaptive only) *)
}

let default_options =
  {
    flavor = Graphdance;
    weight_coalescing = true;
    shared_state = false;
    memory_capacity = None;
    partition = Partition.Hash;
    adaptive = default_adaptive;
  }

(* Tasks per worker scheduling quantum. *)
let quantum_tasks = 64

(* Data-access multiplier when the graph exceeds [memory_capacity]. *)
let swap_penalty = 60

(* Every payload that can sit on a query's causal chain carries a causal
   context [cz]: the id of the {!Pstm_obs.Causal} DAG node that produced
   it (-1 when causal tracing is off). The field is mutable because
   delivery rewrites it to the arrival node, so the consumer's edge
   covers only the queue wait, not the network hop again. [cz] is pure
   metadata: [payload_bytes] ignores it, so the simulated byte counts
   and costs are untouched whether tracing is on or off. *)
type payload =
  | P_trav of { qid : int; trav : Traverser.t; mutable cz : int }
  | P_trav_batch of { qid : int; travs : Traverser.t list; mutable cz : int }
    (* Frontier batching ([Engine.Common.batched]): one coalesced message
       per (destination, kind) bucket instead of one packet per traverser.
       Each traverser still carries its own step and weight, so reliable
       delivery (ack / retransmit / dedup) treats the batch like any
       other payload and conservation is untouched. *)
  | P_progress of { qid : int; phase : int; weight : Weight.t; mutable cz : int }
  | P_agg_flush of { qid : int; agg_step : int; mutable cz : int }
  | P_agg_partial of { qid : int; agg_step : int; partial : Aggregate.t option; mutable cz : int }
  | P_cleanup of { qid : int }
  | P_setup of { qid : int; mutable cz : int } (* dataflow flavors: instantiate operators *)
  | P_setup_ack of { qid : int; mutable cz : int }
  (* Vertex migration (adaptive repartitioning). The order goes to the
     old owner, which extracts the vertex's memo entries and ships them
     to the new owner as one costed data message. *)
  | P_migrate of { vertex : int; dst : int; mutable cz : int }
  | P_migrate_data of { vertex : int; entries : (int * int * Memo.entry) list; mutable cz : int }

let payload_bytes = function
  | P_trav { trav; _ } -> 8 + Traverser.bytes trav
  | P_trav_batch { travs; _ } ->
    (* One header amortized over the batch; elements pay only their own
       serialized size, not a per-message frame. *)
    List.fold_left (fun acc t -> acc + Traverser.bytes t) 16 travs
  | P_progress _ -> 8 + Weight.bytes + 8
  | P_agg_flush _ -> 16
  | P_agg_partial { partial; _ } ->
    16 + (match partial with None -> 0 | Some p -> Aggregate.bytes p)
  | P_cleanup _ -> 8
  | P_setup _ | P_setup_ack _ -> 16
  | P_migrate _ -> 16
  | P_migrate_data { entries; _ } ->
    List.fold_left (fun acc (_, _, e) -> acc + 16 + Memo.entry_bytes e) 16 entries

type query_state = {
  qid : int;
  program : Program.t;
  coordinator : int;
  tenant : int;
  priority : int;
  submitted : Sim_time.t;
  mutable outcome : Engine.outcome option; (* None while still live *)
  mutable launched : bool; (* the submit event ran (trackers registered) *)
  trackers : Progress.tracker array; (* one per phase *)
  touched : Bitset.t; (* workers that executed a traverser (first-touch) *)
  mutable combine_step : int; (* aggregate step being combined, or -1 *)
  mutable combine_expected : int;
  mutable combine_received : int;
  mutable combine_acc : Aggregate.t option;
  rows : Value.t array Vec.t;
  mutable active : bool;
  mutable setup_acks : int; (* dataflow deployment acks outstanding *)
}

type worker = {
  id : int;
  memo : Memo.t; (* private, or node-shared under [shared_state] *)
  tasks : payload Ring.t;
  coalescer : Progress.coalescer;
  prng : Prng.t;
  mutable busy_until : Sim_time.t;
  mutable busy_total : Sim_time.t; (* accumulated CPU time *)
  mutable awake : bool; (* a quantum event is scheduled *)
  scan : int option -> int array; (* owned vertices with a label, for Scan sources *)
  scratch : Batch_exec.scratch Lazy.t; (* batched-mode bitset verdict memo *)
  (* Causal worker chain: the last execution node on this worker and its
     query, valid only while the worker has been continuously busy since
     (invalidated at every idle gap). When the chain is live and owned by
     the same query, the next execution's binding cause is the previous
     execution — worker occupancy — rather than its own queue wait. *)
  mutable cz_last : int;
  mutable cz_last_qid : int;
}

let no_trav = Traverser.make ~vertex:0 ~step:0 ~weight:Weight.zero ~n_registers:0

(* The unit every traverser executes in: traversers sharing a (qid,
   step), each with the causal context it arrived under. *)
type group = {
  mutable g_qid : int;
  mutable g_step : int;
  g_travs : Traverser.t Vec.t;
  g_czs : int Vec.t;
}

let group () =
  { g_qid = -1; g_step = -1; g_travs = Vec.create ~dummy:no_trav; g_czs = Vec.create ~dummy:(-1) }

(* Build an open engine session ({!Engine.service_handle}): all state is
   captured in the returned closures, so [run] below is a thin
   submit-all/drive/finish wrapper and the service layer can drive the
   same machinery with feedback (incremental submission, scoped
   cancellation) instead of a closed submission array. *)
let create ?(options = default_options) ?(common = Engine.Common.default) ~cluster_config
    ~channel_config ~graph () =
  let obs = common.Engine.Common.obs in
  let check = common.Engine.Common.check in
  let deadline = common.Engine.Common.deadline in
  (* Frontier batching is opt-in: it selects the staging, fusion and
     wire-format settings of the one execution path ([run_group]). *)
  let batched = common.Engine.Common.batched in
  let mutation = common.Engine.Common.mutation in
  let cluster = Cluster.create cluster_config in
  (* Fault plane (if any) attaches before the channel is created, so the
     channel sees it and switches to reliable delivery. *)
  let faults = Option.map Faults.create common.Engine.Common.faults in
  Cluster.set_faults cluster faults;
  Cluster.set_mutation cluster mutation;
  let events = Cluster.events cluster in
  (* Schedule exploration: an installed chooser permutes same-timestamp
     ties; [None] (the default) keeps canonical insertion order. *)
  Event_queue.set_chooser events common.Engine.Common.chooser;
  let metrics = Cluster.metrics cluster in
  let costs = Cluster.costs cluster in
  let n_workers = Cluster.n_workers cluster in
  (* Straggler injection: scale a worker's CPU costs by its node's factor.
     Pause injection: defer a worker's quanta past the window's end. Both
     are identity when no fault plane is attached. *)
  let fault_scale w cost =
    match faults with
    | None -> cost
    | Some f -> Faults.scale f ~node:(Cluster.node_of_worker cluster w) cost
  in
  let fault_release w time =
    match faults with
    | None -> time
    | Some f -> Faults.release f ~node:(Cluster.node_of_worker cluster w) ~at:time
  in
  (* Protocol conformance monitors, compiled from the declarative state
     machines in [Pstm_analysis.Protocol] and fed from the channel's
     protocol hook (reliable delivery), the migration path and the
     tracker lifecycle. A feed returns the violation an event causes;
     without [check] it is a no-op and no monitor exists. *)
  let monitors = ref [] in
  let monitor spec =
    if not check then fun ~key:_ _ -> None
    else begin
      let compiled = Lazy.force spec in
      let mon = Protocol.monitor compiled in
      monitors := mon :: !monitors;
      fun ~key name -> Protocol.step mon ~key ~msg:(Protocol.msg compiled name)
    end
  in
  let channel_monitor = monitor Protocol.channel in
  let migration_monitor = monitor Protocol.migration in
  let tracker_monitor = monitor Protocol.tracker in
  if check then begin
    let n_nodes = Cluster.n_nodes cluster in
    Cluster.set_protocol_hook cluster
      (Some
         (fun { Cluster.pkt_ev; ev_src; ev_dst; ev_seq } ->
           let name =
             match pkt_ev with
             | Cluster.Pkt_send -> "send"
             | Cluster.Pkt_retransmit -> "retransmit"
             | Cluster.Pkt_deliver -> "deliver"
             | Cluster.Pkt_dup -> "dup"
             | Cluster.Pkt_ack -> "ack"
             | Cluster.Pkt_abandon -> "abandon"
           in
           (* One instance per (link, seq); per-link sequence numbers stay
              far below 2^24 in any run we simulate. *)
           let key = (((ev_src * n_nodes) + ev_dst) lsl 24) lor (ev_seq land 0xFFFFFF) in
           match channel_monitor ~key name with
           | None -> ()
           | Some why ->
             Engine.check_fail "async: link %d->%d seq %d: %s" ev_src ev_dst ev_seq why))
  end;
  let mig_event name vertex =
    match migration_monitor ~key:vertex name with
    | None -> ()
    | Some why -> Engine.check_fail "async: migration of vertex %d: %s" vertex why
  in
  let tracker_event name ~qid ~phase =
    match tracker_monitor ~key:((qid * 1024) + phase) name with
    | None -> ()
    | Some why -> Engine.check_fail "async: tracker of query %d phase %d: %s" qid phase why
  in
  (* Observability: every emission site is guarded by [obs_on] (or the
     recorder's own enabled flag), so the disabled path costs one branch. *)
  let obs_on = Pstm_obs.Recorder.enabled obs in
  let trace = Pstm_obs.Recorder.trace obs in
  let opstats = Pstm_obs.Recorder.opstats obs in
  (* Causal tracing (EXPLAIN LATENCY): every hand-off registers a DAG
     node; the producing context rides the payload's [cz] field. All
     sites are guarded by [cz_on], so the default path pays nothing. *)
  let causal = Pstm_obs.Recorder.causal obs in
  let cz_on = Pstm_obs.Causal.enabled causal in
  (* One causal hand-off: a node at [ts] bound to [src] by a [cat] edge. *)
  let cz_hop ~qid ~name ~ts ~src cat =
    if not cz_on then -1
    else begin
      let n = Pstm_obs.Causal.node causal ~qid ~name ~ts in
      Pstm_obs.Causal.edge causal ~src ~dst:n cat;
      n
    end
  in
  (* Service callback: fired once per query at its terminal transition
     (completion, per-query timeout, or scoped cancellation). *)
  let on_terminal : (int -> Engine.outcome -> unit) ref = ref (fun _ _ -> ()) in
  if obs_on then
    Cluster.set_packet_hook cluster
      (Some
         (fun (p : Cluster.packet_info) ->
           (* Span covers NIC serialization only (packets on one NIC are
              disjoint by construction); arrival is carried as an arg. *)
           let occupancy_end =
             Sim_time.diff p.Cluster.arrival (Cluster.net cluster).Netmodel.wire_latency
           in
           Pstm_obs.Trace.span trace ~cat:"net"
             ~tid:(Engine.nic_track p.Cluster.src_node)
             ~name:"packet" ~ts:p.Cluster.nic_start
             ~dur:(Sim_time.diff occupancy_end p.Cluster.nic_start)
             ~args:
               [
                 ("dst_node", Pstm_obs.Trace.I p.Cluster.dst_node);
                 ("bytes", Pstm_obs.Trace.I p.Cluster.bytes);
                 ("arrival_ns", Pstm_obs.Trace.I (Sim_time.to_ns p.Cluster.arrival));
               ]
             ()));
  let workers_per_node = cluster_config.Cluster.workers_per_node in
  let adaptive_on = options.partition = Partition.Adaptive in
  let partition =
    Partition.create ~strategy:options.partition ~n_parts:n_workers
      ~n_vertices:(Graph.n_vertices graph) ()
  in
  let seed_prng = Prng.create common.Engine.Common.seed in
  (* Node-shared memos for the non-partitioned ablation. *)
  let node_memos = Array.init (Cluster.n_nodes cluster) (fun _ -> Memo.create ()) in
  (* The workers that answer an aggregate flush: every partition, or
     under the shared (non-partitioned) model one worker per node for
     the node-wide memo. *)
  let agg_responders =
    if options.shared_state then
      Array.init (Cluster.n_nodes cluster) (fun node -> node * workers_per_node)
    else Array.init n_workers Fun.id
  in
  let workers =
    Array.init n_workers (fun id ->
        let members =
          (* Under adaptive repartitioning the owner table mutates at
             runtime; Scan sources partition the vertex set by the
             launch-time assignment, so membership is frozen eagerly
             (each vertex scanned exactly once no matter what moves). *)
          if adaptive_on then Lazy.from_val (Partition.members partition id)
          else lazy (Partition.members partition id)
        in
        {
          id;
          memo =
            (if options.shared_state then node_memos.(Cluster.node_of_worker cluster id)
             else Memo.create ());
          tasks = Ring.create ~dummy:(P_cleanup { qid = -1 });
          coalescer = Progress.coalescer ();
          prng = Prng.split seed_prng;
          busy_until = Sim_time.zero;
          busy_total = Sim_time.zero;
          awake = false;
          cz_last = -1;
          cz_last_qid = -1;
          scan = Exec.partition_scan graph members;
          scratch = lazy (Batch_exec.scratch ~graph);
        })
  in
  (* Indexed by qid: qids are dense (handed out by [next_qid]) and never
     removed, and each entry's [Some] is built once, at submission, so a
     lookup allocates nothing. *)
  let queries : query_state option Vec.t = Vec.create ~dummy:None in
  let find_query qid = if qid >= 0 && qid < Vec.length queries then Vec.get queries qid else None in
  let query qid =
    match find_query qid with
    | Some q -> q
    | None -> invalid_arg (Fmt.str "Async_engine: unknown query %d" qid)
  in
  (* The stored [Some q] while [q] is live; [None] once it completed, was
     cancelled or timed out, so its stragglers are dropped. *)
  let live_query qid =
    match find_query qid with Some q as live when q.active -> live | _ -> None
  in
  (* Total live operator instances; the dataflow flavors pay a scheduling
     tax proportional to this every quantum. *)
  let active_op_count = ref 0 in
  (* Queries concurrently resident (launched, not yet completed): the
     contention axis of the non-partitioned ablation's latch model. *)
  let n_active = ref 0 in
  (* --- Adaptive repartitioning state ----------------------------------- *)
  (* Two traffic sinks: the observability recorder's (export only, on
     whenever tracing is) and the engine's own profile feeding online
     refinement (on only under Adaptive). Both count remote dispatches
     keyed by the (parent vertex, routing vertex) pair. *)
  let obs_traffic = Pstm_obs.Recorder.traffic obs in
  let traffic_on = Pstm_obs.Traffic.enabled obs_traffic in
  let profile =
    if adaptive_on then Pstm_obs.Traffic.create () else Pstm_obs.Traffic.disabled
  in
  (* Vertices whose memo entries are in flight to their new owner; the
     stash parks traversers that arrive at the new owner early. *)
  let migrating : (int, payload list ref) Hashtbl.t = Hashtbl.create 64 in
  (* Each vertex migrates at most once per run: successive rounds refine
     against an evolving profile, and letting them re-home the same
     vertices chases every intermediate local optimum — the migration
     and forwarding churn costs more than the cut it recovers. *)
  let migrated_ever : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let next_round = ref Sim_time.zero in
  let profiled_at_round = ref 0 in
  let centralized op =
    match (options.flavor, op) with
    | Gaia_like, (Step.Dedup _ | Step.Visit _ | Step.Join _ | Step.Aggregate _) -> true
    | _ -> false
  in
  let key_vertex (trav : Traverser.t) e =
    match Step.eval_expr graph ~vertex:trav.Traverser.vertex ~regs:trav.Traverser.regs e with
    | Value.Vertex v -> Some v
    | _ -> None
  in
  (* The vertex whose owner the dispatch target is, if any: By_vertex
     routes by the traverser's vertex, By_key by the key's vertex when
     the key is one. Coordinator-routed and hash-routed steps (and
     Gaia's centralized stateful ops) have none. *)
  let routed_vertex q (trav : Traverser.t) =
    let op = (Program.step q.program trav.Traverser.step).Step.op in
    if centralized op then None
    else begin
      match Step.routing op with
      | Step.By_coordinator -> None
      | Step.By_vertex -> Some trav.Traverser.vertex
      | Step.By_key e -> key_vertex trav e
    end
  in
  (* The vertex whose memo entries this traverser's step reads or
     writes, if any. Only Dedup / Visit / Join key memo records by a
     value — when that value is a vertex, migration re-homes the
     records, so stale arrivals must chase the new owner and early
     arrivals must wait for the entries. Stateless steps (Expand,
     Filter, ...) execute wherever they land; a stale arrival there is
     only a locality miss, never a correctness hazard. *)
  let stateful_key_vertex q (trav : Traverser.t) =
    if options.flavor = Gaia_like then None
    else begin
      match (Program.step q.program trav.Traverser.step).Step.op with
      | Step.Visit _ -> Some trav.Traverser.vertex
      | Step.Dedup { by } | Step.Join { key = by; _ } -> key_vertex trav by
      | _ -> None
    end
  in
  (* --- Cost model ----------------------------------------------------- *)
  let swapping =
    match options.memory_capacity with
    | Some capacity -> Graph.bytes graph > capacity * Cluster.n_nodes cluster
    | None -> false
  in
  (* Under the non-partitioned model every step touches node-shared
     state: the graph storage latch plus query-state synchronization.
     Contention has two axes — the worker fan-in per node (static,
     §V-A2) and the number of queries concurrently resident in the
     shared structures: a latch queue grows with every query whose
     state hangs off it, so the per-acquisition cost scales with live
     concurrency. With one resident query the factor is 1 and the model
     reduces to the uncontended latch. The partitioned model pays none
     of this — each worker owns its data. *)
  (* Latch contention grows with the number of concurrently resident
     queries, but sublinearly: colliding critical sections are short, so
     only a fraction of the other residents is ever queued on the same
     latch. A lone query pays exactly the uncontended cost, keeping
     single-query runs byte-identical to the static model. *)
  let contention () = 1 + (2 * (max 1 !n_active - 1) / 5) in
  let shared_step_penalty () =
    if options.shared_state then
      costs.Cluster.latch * (1 + ((workers_per_node - 1) / 5)) * contention ()
    else Sim_time.zero
  in
  let memo_op_cost () =
    if options.shared_state then
      Sim_time.add costs.Cluster.memo_op (costs.Cluster.latch * contention ())
    else costs.Cluster.memo_op
  in
  (* CPU time of executing one group: one step dispatch, so a group of
     one pays it per traverser, plus the group's data and memo volume. *)
  let step_cost (sink : Exec.sink) =
    let data =
      (sink.Exec.edges_scanned * costs.Cluster.per_edge)
      + (sink.Exec.prop_reads * costs.Cluster.per_property)
    in
    let data = if options.shared_state then data + (data / 2) else data in
    let base =
      costs.Cluster.step_dispatch + shared_step_penalty () + data
      + (sink.Exec.memo_ops * memo_op_cost ())
    in
    (* Memory thrashing faults the whole access path, not just the data
       columns (§V-A3: GraphScope on SF1000). *)
    if swapping then base * swap_penalty else base
  in
  (* --- Channel and routing -------------------------------------------- *)
  let channel_ref = ref None in
  let channel () = Option.get !channel_ref in
  (* Arrival interception: when a context-carrying payload lands on a
     worker's queue, register an arrival node at the delivery instant and
     rewrite the payload's [cz] to it, so the consumer's edge covers only
     the queue wait from here on. The hop edge is Network, or Retransmit
     when the reliable channel is delivering a retransmitted copy — that
     edge *is* the recovery stall. Same-worker sends bypass this (no hop:
     the consumer binds straight to the producer). *)
  let cz_arrive_payload p =
    let hop =
      match !channel_ref with
      | Some ch when Channel.delivering_retransmitted ch -> Pstm_obs.Causal.Retransmit
      | _ -> Pstm_obs.Causal.Network
    in
    let ts = Cluster.now cluster in
    let arrive ~qid ~name cz = if cz < 0 then -1 else cz_hop ~qid ~name ~ts ~src:cz hop in
    match p with
    | P_trav ({ qid; _ } as r) -> r.cz <- arrive ~qid ~name:"arrive" r.cz
    | P_trav_batch ({ qid; _ } as r) -> r.cz <- arrive ~qid ~name:"arrive-batch" r.cz
    | P_progress ({ qid; _ } as r) -> r.cz <- arrive ~qid ~name:"arrive-progress" r.cz
    | P_agg_flush ({ qid; _ } as r) -> r.cz <- arrive ~qid ~name:"arrive-agg" r.cz
    | P_agg_partial ({ qid; _ } as r) -> r.cz <- arrive ~qid ~name:"arrive-partial" r.cz
    | P_setup ({ qid; _ } as r) -> r.cz <- arrive ~qid ~name:"arrive-setup" r.cz
    | P_setup_ack ({ qid; _ } as r) -> r.cz <- arrive ~qid ~name:"arrive-ack" r.cz
    | P_migrate ({ vertex = _; _ } as r) -> r.cz <- arrive ~qid:(-1) ~name:"arrive-migrate" r.cz
    | P_migrate_data ({ vertex = _; _ } as r) ->
      r.cz <- arrive ~qid:(-1) ~name:"arrive-mdata" r.cz
    | P_cleanup _ -> ()
  in
  (* Traffic profiling: every remote dispatch whose target is decided by
     a vertex's owner is an edge of the workload's communication graph —
     the signal the adaptive repartitioner minimizes. [src_vertex] is
     the parent's vertex, or -1 for a traverser no step spawned. Returns
     whether the hop was profiled. *)
  let profile_hop ~src_vertex q (trav : Traverser.t) =
    (traffic_on || adaptive_on)
    && src_vertex >= 0
    &&
    match routed_vertex q trav with
    | None -> false
    | Some v ->
      let bytes = 8 + Traverser.bytes trav in
      Pstm_obs.Traffic.record obs_traffic ~src:src_vertex ~dst:v ~bytes;
      Pstm_obs.Traffic.record profile ~src:src_vertex ~dst:v ~bytes;
      true
  in
  (* --- Staged execution state ------------------------------------------
     The engine is single-threaded and no group's execution nests inside
     another's, so one set of accumulators serves every worker, reused
     from group to group: a group of one allocates nothing here. *)
  let solo = group () in (* the group of one, when staging is off *)
  let staged = Vec.create ~dummy:solo in (* this quantum's groups, first-seen order *)
  let n_staged = ref 0 in
  let staged_at : (int * int, group) Hashtbl.t = Hashtbl.create 16 in
  (* What executing the current group produced, summed over its
     elements, and each child's parent vertex (for traffic profiling). *)
  let sink = Exec.sink () in
  let parents = Vec.create ~dummy:0 in
  (* Batch-wire buckets, keyed 2 x destination + 1 for result messages. *)
  let kid_keys = Vec.create ~dummy:0 in
  let bucket_keys = Vec.create ~dummy:0 in (* first-seen order *)
  let bucket_size = Array.make (2 * n_workers) 0 in
  let bucket_travs = Array.make (2 * n_workers) [] in
  (* Execute stage: the fused Batch_exec chain over the whole group when
     fusion is on and the step is fusable, the scalar interpreter per
     element otherwise. Either way [sink] ends up holding the group's
     children, rows, finished weight and data / memo volume. *)
  let execute w q g =
    Exec.clear sink;
    Vec.clear parents;
    if batched && Batch_exec.fusable q.program g.g_step then begin
      let travs = Vec.to_array g.g_travs in
      let o =
        Batch_exec.run ~graph ~scratch:(Lazy.force w.scratch) ~prng:w.prng ~program:q.program
          ~step:g.g_step travs
      in
      Batch_exec.iter_spawns o (fun ~parent kid ->
          Vec.push sink.Exec.spawns kid;
          Vec.push parents travs.(parent).Traverser.vertex);
      sink.finished <- o.Batch_exec.finished;
      sink.edges_scanned <- o.Batch_exec.edges_scanned;
      sink.prop_reads <- o.Batch_exec.prop_reads
    end
    else begin
      for i = 0 to Vec.length g.g_travs - 1 do
        let trav = Vec.get g.g_travs i in
        Exec.run sink ~graph ~memo:w.memo ~prng:w.prng ~qid:q.qid ~program:q.program ~scan:w.scan
          trav;
        for _ = Vec.length parents to Vec.length sink.spawns - 1 do
          Vec.push parents trav.Traverser.vertex
        done
      done;
      if not (Vec.is_empty sink.rows) then begin
        (* Rows are only produced by Emit, which routes to the coordinator
           first — so they land here, at the coordinator itself. *)
        assert (w.id = q.coordinator);
        Vec.append ~into:q.rows sink.rows
      end
    end
  in
  (* One prebuilt [quantum w] thunk per worker, filled in once [quantum]
     is defined, so scheduling a quantum allocates nothing. *)
  let quantum_thunks = Array.make n_workers ignore in
  let rec wake w =
    if not w.awake then begin
      w.awake <- true;
      let time = max (Cluster.now cluster) w.busy_until in
      let time = fault_release w.id time in
      Event_queue.schedule_at events ~time ~tag:(Cluster.worker_tag cluster w.id)
        quantum_thunks.(w.id)
    end
  (* ---- Message / task processing ------------------------------------- *)
  and deliver dst payload =
    if cz_on then cz_arrive_payload payload;
    let w = workers.(dst) in
    Ring.push w.tasks payload;
    wake w
  and send ~at ~src ~dst ~kind payload =
    if src = dst then begin
      (* Same worker: a plain queue push, no messaging machinery. The wake
         is a no-op while the worker's own quantum is running, but matters
         when the sender is the submission path or a network-thread
         event acting on the worker's behalf. *)
      Ring.push workers.(dst).tasks payload;
      wake workers.(dst);
      Sim_time.zero
    end
    else
      Channel.send (channel ()) ~at ~src_worker:src ~dst_worker:dst ~kind
        ~bytes:(payload_bytes payload) payload
  (* h_psi ({!Exec.route}), except that Gaia runs its stateful steps on
     worker 0. *)
  and route q (trav : Traverser.t) =
    if centralized (Program.step q.program trav.step).Step.op then 0
    else Exec.route ~graph ~partition ~coordinator:q.coordinator q.program trav
  (* The per-traverser wire format: one P_trav to the worker that owns
     the traverser's next step. A profiled remote hop may trigger a
     refinement round. *)
  and dispatch ~at ~src ~src_vertex ~cz q trav =
    let dst = route q trav in
    let kind = Exec.msg_kind q.program trav in
    let cost = send ~at ~src ~dst ~kind (P_trav { qid = q.qid; trav; cz }) in
    if dst <> src && profile_hop ~src_vertex q trav && adaptive_on then
      Sim_time.add cost (maybe_adapt ~at ~src ~cz)
    else cost
  (* Refinement round, triggered lazily off the remote-dispatch path once
     enough fresh traffic has been profiled and the interval elapsed.
     Refinement itself runs on the partition directory off the critical
     path (uncosted); what is costed is the migration itself — the order
     to each old owner and the memo-entry data message it sends on. The
     owner table flips immediately: traversers already in flight toward
     the old owner get forwarded on arrival, and arrivals at the new
     owner park until the entries land, so no memo state is ever read
     half-moved and Theorem 1's weight conservation is untouched. *)
  and maybe_adapt ~at ~src ~cz =
    let ao = options.adaptive in
    if
      Pstm_obs.Traffic.total_count profile - !profiled_at_round >= ao.min_traffic
      && Sim_time.compare at !next_round >= 0
    then begin
      next_round := Sim_time.add at ao.refine_interval;
      profiled_at_round := Pstm_obs.Traffic.total_count profile;
      let edges =
        Array.map (fun (u, v, _count, bytes) -> (u, v, bytes)) (Pstm_obs.Traffic.edges profile)
      in
      let assignment = Partition.to_assignment partition in
      let moves, _stats =
        Repartition.refine ~max_imbalance ~max_heat_imbalance ~max_moves ~n_parts:n_workers
          ~assignment edges
      in
      let cost = ref Sim_time.zero in
      List.iter
        (fun { Repartition.vertex; src = old_owner; dst = new_owner } ->
          (* A vertex whose previous migration is still in flight stays
             put this round: its entries are not at the "old owner" the
             refiner sees, so a second hop now would lose them. *)
          if not (Hashtbl.mem migrating vertex) && not (Hashtbl.mem migrated_ever vertex)
          then begin
            Hashtbl.add migrated_ever vertex ();
            Partition.set_owner partition vertex new_owner;
            Hashtbl.add migrating vertex (ref []);
            mig_event "order" vertex;
            Metrics.(incr metrics Counter.migrations);
            cost :=
              Sim_time.add !cost
                (send ~at ~src ~dst:old_owner ~kind:Metrics.Control_msg
                   (P_migrate { vertex; dst = new_owner; cz }))
          end)
        moves;
      !cost
    end
    else Sim_time.zero
  (* ---- Progress tracking ---------------------------------------------- *)
  and tracker_receive ~at ?(cz = -1) w q phase weight =
    Metrics.(incr metrics Counter.tracker_updates);
    let cz = cz_hop ~qid:q.qid ~name:"tracker" ~ts:at ~src:cz Pstm_obs.Causal.Tracker in
    if not (Weight.is_zero weight) then tracker_event "receive" ~qid:q.qid ~phase;
    if obs_on then begin
      let acc = Weight.add (Progress.accumulated q.trackers.(phase)) weight in
      Pstm_obs.Trace.instant trace ~cat:"progress" ~tid:(Engine.query_track q.qid)
        ~name:"tracker_receive" ~ts:at
        ~args:
          [
            ("phase", Pstm_obs.Trace.I phase);
            ("receipts", Pstm_obs.Trace.I (Progress.receipts q.trackers.(phase) + 1));
            ("accumulated", Pstm_obs.Trace.I (acc :> int));
          ]
        ()
    end;
    (* Sanitizer: the tracker fires exactly when finished weights sum back
       to the root. Weight arriving afterwards means some share was
       counted twice — termination was detected early. *)
    if check && Progress.is_complete q.trackers.(phase) && not (Weight.is_zero weight) then
      Engine.check_fail "async: query %d phase %d received weight %a after completion" q.qid
        phase Weight.pp weight;
    match Progress.receive q.trackers.(phase) weight with
    | Progress.Complete ->
      tracker_event "complete" ~qid:q.qid ~phase;
      Sim_time.add costs.Cluster.progress_add (phase_complete ~at ~cz w q phase)
    | Progress.Pending ->
      if
        mutation = Some Mutation.Early_tracker_release
        && (not (Progress.is_complete q.trackers.(phase)))
        && Progress.receipts q.trackers.(phase) >= 2
      then begin
        (* Mutant: declare the phase done before Theorem 1's conservation
           sum closes. *)
        Progress.force_complete q.trackers.(phase);
        Sim_time.add costs.Cluster.progress_add (phase_complete ~at ~cz w q phase)
      end
      else costs.Cluster.progress_add
  and finish_weight ~at ?(cz = -1) w q phase weight =
    if Weight.is_zero weight then Sim_time.zero
    else begin
      let coalescing = options.weight_coalescing || options.flavor <> Graphdance in
      if coalescing then begin
        (* The coalescer merges weights from many executions; the flushed
           message inherits the context of the *last* contributor, which
           is the one the tracker was actually waiting on. *)
        Progress.coalesce w.coalescer ~qid:q.qid ~phase ~tag:cz weight;
        (* The "slightly higher per-traverser progress tracking overhead"
           of §V-B: the weight addition plus the local hash merge. The
           dataflow flavors track progress per operator scope instead and
           pay nothing per traverser. *)
        if options.flavor = Graphdance then
          Sim_time.add costs.Cluster.progress_add costs.Cluster.progress_coalesce
        else Sim_time.zero
      end
      else if q.coordinator = w.id then tracker_receive ~at ~cz w q phase weight
      else
        send ~at ~src:w.id ~dst:q.coordinator ~kind:Metrics.Progress_msg
          (P_progress { qid = q.qid; phase; weight; cz })
    end
  and flush_progress ~at w =
    let c = w.coalescer in
    let cost = ref Sim_time.zero in
    (* Locally coalesced weights ship straight to the coordinator. *)
    if not (Progress.is_empty c) then begin
      for i = 0 to Progress.drain_begin c - 1 do
        let qid = Progress.qid_at c i in
        (* A cancelled query's weight is reclaimed, not tracked. *)
        match live_query qid with
        | None -> ()
        | Some q ->
          let phase = Progress.phase_at c i and weight = Progress.weight_at c i in
          (* Coalescer dwell shows up as a Tracker segment: the flush
             node sits between the last contributing execution and the
             tracker receive (local) or the progress message (remote). *)
          let cz =
            cz_hop ~qid ~name:"progress-flush" ~ts:at ~src:(Progress.tag_at c i)
              Pstm_obs.Causal.Tracker
          in
          cost :=
            Sim_time.add !cost
              (if q.coordinator = w.id then tracker_receive ~at ~cz w q phase weight
               else
                 send ~at ~src:w.id ~dst:q.coordinator ~kind:Metrics.Progress_msg
                   (P_progress { qid; phase; weight; cz }))
      done;
      Progress.drain_end c
    end;
    !cost
  (* ---- Phase transitions ----------------------------------------------- *)
  and phase_complete ~at ?(cz = -1) w q phase =
    tracker_event "release" ~qid:q.qid ~phase;
    if obs_on then
      Pstm_obs.Trace.instant trace ~tid:(Engine.query_track q.qid) ~name:"phase_complete" ~ts:at
        ~args:[ ("phase", Pstm_obs.Trace.I phase) ]
        ();
    match Program.agg_of_phase q.program phase with
    | Some agg_step ->
      (* Pull the per-partition partials in (§III-C). Each flush is its
         own value: [arrive] rewrites its [cz]. *)
      q.combine_step <- agg_step;
      q.combine_received <- 0;
      q.combine_acc <- None;
      q.combine_expected <- Array.length agg_responders;
      let cz =
        cz_hop ~qid:q.qid ~name:"phase-complete" ~ts:at ~src:cz Pstm_obs.Causal.Tracker
      in
      let cost = ref Sim_time.zero in
      for i = 0 to Array.length agg_responders - 1 do
        cost :=
          Sim_time.add !cost
            (send ~at ~src:w.id ~dst:agg_responders.(i) ~kind:Metrics.Control_msg
               (P_agg_flush { qid = q.qid; agg_step; cz }))
      done;
      !cost
    | None -> complete_query ~at ~cz w q
  and complete_query ~at ?(cz = -1) w q =
    let released_at = max at (Cluster.now cluster) in
    q.outcome <- Some (Engine.Completed released_at);
    q.active <- false;
    if cz_on then begin
      (* Terminal node: the walk back from here along binding edges is the
         query's critical path, and its segments sum to the latency. *)
      Pstm_obs.Causal.set_release causal ~qid:q.qid
        (cz_hop ~qid:q.qid ~name:"release" ~ts:released_at ~src:cz Pstm_obs.Causal.Tracker)
    end;
    if obs_on then
      Pstm_obs.Trace.instant trace ~tid:(Engine.query_track q.qid) ~name:"complete" ~ts:at
        ~args:
          [
            ("rows", Pstm_obs.Trace.I (Vec.length q.rows));
            ("workers_touched", Pstm_obs.Trace.I (Bitset.count q.touched));
          ]
        ();
    active_op_count := !active_op_count - Program.n_steps q.program;
    n_active := !n_active - 1;
    (* Memos are query-scoped: broadcast the automatic clear of §III-B,
       one immutable message shared by every destination. *)
    let cleanup = P_cleanup { qid = q.qid } in
    let cost = ref Sim_time.zero in
    for dst = 0 to n_workers - 1 do
      cost := Sim_time.add !cost (send ~at ~src:w.id ~dst ~kind:Metrics.Control_msg cleanup)
    done;
    !on_terminal q.qid (Engine.Completed released_at);
    !cost
  (* ---- Task execution --------------------------------------------------- *)
  and process w ~at payload =
    match payload with
    | P_trav _ | P_trav_batch _ -> assert false (* run by [drain] *)
    | P_progress { qid; phase; weight; cz } -> begin
      (* A cancelled / timed-out query's straggling weight is dropped:
         its trackers are already released (timeout), so feeding them
         would re-trigger completion machinery on a dead query. *)
      match live_query qid with
      | None -> Sim_time.zero
      | Some q -> tracker_receive ~at ~cz w q phase weight
    end
    | P_agg_flush { qid; agg_step; cz } -> begin
      match live_query qid with
      | None -> Sim_time.zero
      | Some q ->
        let partial = Memo.partial_opt w.memo ~qid ~label:agg_step in
        (* Collective leg: the coordinator waits for every partial, so
           the flush and partial hops classify as Barrier. *)
        let cz = cz_hop ~qid ~name:"agg-flush" ~ts:at ~src:cz Pstm_obs.Causal.Barrier in
        Sim_time.add (memo_op_cost ())
          (send ~at ~src:w.id ~dst:q.coordinator ~kind:Metrics.Control_msg
             (P_agg_partial { qid; agg_step; partial; cz }))
    end
    | P_agg_partial { qid; agg_step; partial; cz } -> begin
      match live_query qid with
      | None -> Sim_time.zero
      | Some q ->
        assert (q.combine_step = agg_step);
        (match partial, q.combine_acc with
        | None, _ -> ()
        | Some p, None -> q.combine_acc <- Some p
        | Some p, Some acc -> Aggregate.merge ~into:acc p);
        q.combine_received <- q.combine_received + 1;
        if q.combine_received < q.combine_expected then memo_op_cost ()
        else begin
          (* All partials in: finalize and start the next phase. *)
          q.combine_step <- -1;
          let cont = Exec.continuation q.program ~agg_step q.combine_acc in
          Metrics.(incr metrics Counter.spawned);
          (* The continuation enters the next phase from outside any step. *)
          Pstm_obs.Opstats.seed opstats 1;
          (* The combine binds to the last partial in: the barrier
             wait is exactly what the straggling responder cost. *)
          let cz = cz_hop ~qid ~name:"agg-combine" ~ts:at ~src:cz Pstm_obs.Causal.Barrier in
          Sim_time.add (memo_op_cost ()) (dispatch ~at ~src:w.id ~src_vertex:(-1) ~cz q cont)
        end
    end
    | P_cleanup { qid } ->
      Memo.clear_query w.memo qid;
      memo_op_cost ()
    | P_setup { qid; cz } -> begin
      (* Dataflow flavors instantiate every operator of the query's plan
         (plus its channels) in this worker before execution can start. *)
      match live_query qid with
      | None -> Sim_time.zero
      | Some q ->
        let instantiate = 8 * Program.n_steps q.program * costs.Cluster.operator_sched in
        let cz = cz_hop ~qid ~name:"setup" ~ts:at ~src:cz Pstm_obs.Causal.Compute in
        Sim_time.add instantiate
          (send ~at ~src:w.id ~dst:q.coordinator ~kind:Metrics.Control_msg
             (P_setup_ack { qid; cz }))
    end
    | P_setup_ack { qid; cz } -> begin
      match live_query qid with
      | None -> Sim_time.zero
      | Some q ->
        q.setup_acks <- q.setup_acks - 1;
        if q.setup_acks = 0 then begin
          (* Deployment barrier: launch binds to the last ack in. *)
          let cz = cz_hop ~qid ~name:"launch" ~ts:at ~src:cz Pstm_obs.Causal.Barrier in
          launch_entries ~at ~cz q;
          costs.Cluster.operator_sched * Program.n_steps q.program
        end
        else costs.Cluster.operator_sched
    end
    | P_migrate { vertex; dst; cz } ->
      (* Old owner: pull the vertex's records out of the local memo (all
         queries, deterministic order) and ship them as one costed data
         message. Any traverser for the vertex still queued behind this
         order re-routes on arrival through the execution gate. *)
      let entries = Memo.extract_for_key w.memo (Value.Vertex vertex) in
      mig_event "extract" vertex;
      Metrics.(add metrics Counter.migrated_entries (List.length entries));
      let cz =
        cz_hop ~qid:(-1) ~name:"migrate-extract" ~ts:at ~src:cz Pstm_obs.Causal.Queue
      in
      Sim_time.add
        (memo_op_cost () * (1 + List.length entries))
        (send ~at ~src:w.id ~dst ~kind:Metrics.Control_msg
           (P_migrate_data { vertex; entries; cz }))
    | P_migrate_data { vertex; entries; cz } ->
      (* New owner: install the records — entries of queries that
         completed while the message was in flight are dropped (their
         cleanup broadcast already passed) — then release any parked
         traversers in arrival order. *)
      List.iter
        (fun (qid, label, entry) ->
          if Option.is_some (live_query qid) then
            Memo.set w.memo ~qid ~label (Value.Vertex vertex) entry)
        entries;
      mig_event "install" vertex;
      (match Hashtbl.find_opt migrating vertex with
      | Some stash ->
        Hashtbl.remove migrating vertex;
        if mutation <> Some Mutation.Drop_stash_drain then
          List.iter
            (fun p ->
              (* Each parked traverser resumes through a drain node. The
                 install context comes in first (for DAG completeness);
                 the traverser's own parked context binds last, so the
                 walk stays within its query and the whole stash wait
                 reads as Queue. *)
              (if cz_on then begin
                 match p with
                 | P_trav ({ qid; _ } as r) when r.cz >= 0 ->
                   let d = Pstm_obs.Causal.node causal ~qid ~name:"stash-drain" ~ts:at in
                   Pstm_obs.Causal.edge causal ~src:cz ~dst:d Pstm_obs.Causal.Queue;
                   Pstm_obs.Causal.edge causal ~src:r.cz ~dst:d Pstm_obs.Causal.Queue;
                   r.cz <- d
                 | _ -> ()
               end);
              Ring.push w.tasks p)
            (List.rev !stash)
      | None -> ());
      memo_op_cost () * (1 + List.length entries)
  (* ---- Worker scheduling loop ------------------------------------------- *)
  and launch_entries ~at ?(cz = -1) q =
    let entries = Program.entries q.program in
    let shares = Weight.split seed_prng Weight.root ~n:(Array.length entries) in
    Array.iteri
      (fun i entry ->
        let root =
          Traverser.make ~vertex:0 ~step:entry ~weight:shares.(i)
            ~n_registers:(Program.n_registers q.program)
        in
        match (Program.step q.program entry).Step.op with
        | Step.Scan _ ->
          (* Scans start everywhere: one seed per worker, each scanning
             its own partition. *)
          let seeds = Weight.split seed_prng shares.(i) ~n:n_workers in
          Pstm_obs.Opstats.seed opstats n_workers;
          Array.iteri
            (fun dst seed ->
              ignore
                (send ~at ~src:q.coordinator ~dst ~kind:Metrics.Control_msg
                   (P_trav { qid = q.qid; trav = Traverser.with_weight root seed; cz })))
            seeds
        | _ ->
          Pstm_obs.Opstats.seed opstats 1;
          deliver q.coordinator (P_trav { qid = q.qid; trav = root; cz }))
      entries
  (* ---- Staged traverser execution -------------------------------------
     Every traverser executes through [run_group], over a group of
     traversers sharing a (qid, step), in four stages: gate (migration
     forward / stash), execute (see [execute]), account (conservation
     check, cost, counters, opstats, first touch, the causal execution
     node, the trace span) and hand off (children, rows to the tracker,
     finished weight to the coalescer). [Engine.Common.batched] selects
     three settings of this one path:
     - staging: a quantum stages its traversers into per-(qid, step)
       groups and runs them, in first-seen order, once its budget is
       spent; or it runs each traverser as it pops, a group of one that
       pays one step dispatch per traverser;
     - fusion: fusable chains run as Batch_exec CSR-range scans, or not;
     - wire format: one P_trav_batch per (destination, kind) bucket, or
       one P_trav per child.
     Staging is strictly intra-quantum, so no weight is ever parked
     across quanta and termination detection is untouched. *)
  and take w local ~qid ~cz trav =
    let g =
      if not batched then begin
        Vec.clear solo.g_travs;
        Vec.clear solo.g_czs;
        solo
      end
      else begin
        let key = (qid, trav.Traverser.step) in
        match Hashtbl.find_opt staged_at key with
        | Some g -> g
        | None ->
          if !n_staged = Vec.length staged then Vec.push staged (group ());
          let g = Vec.get staged !n_staged in
          incr n_staged;
          Hashtbl.add staged_at key g;
          g
      end
    in
    g.g_qid <- qid;
    g.g_step <- trav.Traverser.step;
    Vec.push g.g_travs trav;
    Vec.push g.g_czs cz;
    if not batched then
      local := Sim_time.add !local (fault_scale w.id (run_group w ~at:!local solo))
  and drain w local =
    let budget = ref quantum_tasks in
    while !budget > 0 && not (Ring.is_empty w.tasks) do
      match Ring.pop w.tasks with
      | P_trav { qid; trav; cz } ->
        decr budget;
        take w local ~qid ~cz trav
      | P_trav_batch { qid; travs; cz } ->
        (* Each element charges the budget: a batch is cheaper to
           execute, not free to schedule. *)
        List.iter
          (fun trav ->
            decr budget;
            take w local ~qid ~cz trav)
          travs
      | payload ->
        decr budget;
        local := Sim_time.add !local (fault_scale w.id (process w ~at:!local payload))
    done;
    for i = 0 to !n_staged - 1 do
      let g = Vec.get staged i in
      local := Sim_time.add !local (fault_scale w.id (run_group w ~at:!local g));
      Vec.clear g.g_travs;
      Vec.clear g.g_czs
    done;
    n_staged := 0;
    Hashtbl.clear staged_at
  and run_group w ~at g =
    match live_query g.g_qid with
    | None -> Sim_time.zero
    | Some q ->
      let gated = if adaptive_on then gate w ~at q g else Sim_time.zero in
      let n = Vec.length g.g_travs in
      if n = 0 then gated
      else begin
        execute w q g;
        (* Account. *)
        let qid = q.qid and step = g.g_step in
        let op = Step.op_name (Program.step q.program step).Step.op in
        if check then begin
          (* Theorem 1 over the group: inflow = children + rows + finished. *)
          let add acc (t : Traverser.t) = Weight.add acc t.Traverser.weight in
          let inflow = Vec.fold add Weight.zero g.g_travs in
          let outflow = Vec.fold add (Weight.add sink.finished sink.row_weight) sink.spawns in
          if not (Weight.equal inflow outflow) then
            Engine.check_fail "async: query %d step %d (%s) broke weight conservation" qid step op
        end;
        if obs_on && Bitset.add_if_absent q.touched w.id then
          Pstm_obs.Trace.instant trace ~tid:(Engine.query_track qid) ~name:"first_touch" ~ts:at
            ~args:[ ("worker", Pstm_obs.Trace.I w.id) ]
            ();
        if batched then Metrics.count_batch metrics ~traversers:n;
        Metrics.(add metrics Counter.steps n);
        Metrics.(add metrics Counter.edges_scanned sink.Exec.edges_scanned);
        Metrics.(add metrics Counter.memo_ops sink.Exec.memo_ops);
        let base = step_cost sink in
        if obs_on then
          Pstm_obs.Opstats.record opstats ~step ~n ~out:(Vec.length sink.spawns)
            ~rows:(Vec.length sink.rows)
            ~finished:(not (Weight.is_zero sink.finished))
            ~edges:sink.edges_scanned ~memo_hits:sink.memo_hits ~memo_misses:sink.memo_misses
            ~busy_ns:(Sim_time.to_ns base);
        (* Execution node. Incoming edges, binding last: each distinct
           arrival / producer context that fed the group (its span is the
           queue wait), then — when this worker has run continuously and
           its previous execution belonged to the same query — the worker
           chain (the span is serial compute occupancy). *)
        let cz =
          if not cz_on then -1
          else begin
            let s = Pstm_obs.Causal.node causal ~qid ~name:op ~ts:at in
            let last = ref (-1) in
            for i = 0 to n - 1 do
              let c = Vec.get g.g_czs i in
              if c >= 0 && c <> !last then begin
                Pstm_obs.Causal.edge causal ~src:c ~dst:s Pstm_obs.Causal.Queue;
                last := c
              end
            done;
            if w.cz_last_qid = qid then
              Pstm_obs.Causal.edge causal ~src:w.cz_last ~dst:s Pstm_obs.Causal.Compute;
            w.cz_last <- s;
            w.cz_last_qid <- qid;
            s
          end
        in
        (* Hand off. Rows reach the tracker as one merged weight; Emit
           yields exactly one row, so a group of one delivers per row. *)
        let shipped = if batched then ship_batches w ~at q ~cz else ship_each w ~at q ~cz in
        let cost = Sim_time.add (Sim_time.add gated base) shipped in
        let phase = Program.phase_of_step q.program step in
        let cost =
          if Vec.is_empty sink.rows then cost
          else Sim_time.add cost (tracker_receive ~at ~cz w q phase sink.row_weight)
        in
        let cost =
          if Weight.is_zero sink.finished then cost
          else Sim_time.add cost (finish_weight ~at ~cz w q phase sink.finished)
        in
        if obs_on then begin
          let args = [ ("qid", Pstm_obs.Trace.I qid); ("step", Pstm_obs.Trace.I step) ] in
          let name, args =
            if batched then ("batch:" ^ op, args @ [ ("size", Pstm_obs.Trace.I n) ]) else (op, args)
          in
          Pstm_obs.Trace.span trace ~tid:w.id ~name ~ts:at ~dur:cost ~args ()
        end;
        cost
      end
  (* Gate: rerun at execution time, since the owner table may flip while
     a traverser sits queued or staged. A stateful step keyed by a vertex
     that migrated away chases the new owner, forwarded wholesale so its
     weight is conserved bit for bit; one whose memo entries are still in
     flight to this worker parks until P_migrate_data lands, so dedup /
     visit / join state is never consulted half-moved. The context parks
     with it; the stash wait reads as Queue. Gated traversers leave the
     group; returns the forwarding cost. *)
  and gate w ~at q g =
    let cost = ref Sim_time.zero in
    let kept = ref 0 in
    for i = 0 to Vec.length g.g_travs - 1 do
      let trav = Vec.get g.g_travs i and cz = Vec.get g.g_czs i in
      match stateful_key_vertex q trav with
      | Some v when Partition.owner partition v <> w.id ->
        Metrics.(incr metrics Counter.forwarded);
        mig_event "forward" v;
        let cz = cz_hop ~qid:q.qid ~name:"forward" ~ts:at ~src:cz Pstm_obs.Causal.Queue in
        cost :=
          Sim_time.add !cost
            (send ~at ~src:w.id ~dst:(Partition.owner partition v) ~kind:Metrics.Traverser_msg
               (P_trav { qid = q.qid; trav; cz }))
      | Some v when Hashtbl.mem migrating v ->
        Metrics.(incr metrics Counter.stashed);
        mig_event "stash" v;
        let stash = Hashtbl.find migrating v in
        stash := P_trav { qid = q.qid; trav; cz } :: !stash
      | _ ->
        Vec.set g.g_travs !kept trav;
        Vec.set g.g_czs !kept cz;
        incr kept
    done;
    Vec.truncate g.g_travs !kept;
    Vec.truncate g.g_czs !kept;
    !cost
  (* P_trav wire: one message per child, in execution order. *)
  and ship_each w ~at q ~cz =
    let cost = ref Sim_time.zero in
    for i = 0 to Vec.length sink.Exec.spawns - 1 do
      Metrics.(incr metrics Counter.spawned);
      cost :=
        Sim_time.add !cost
          (dispatch ~at ~src:w.id ~src_vertex:(Vec.get parents i) ~cz q
             (Vec.get sink.Exec.spawns i))
    done;
    !cost
  (* P_trav_batch wire: children grouped by (destination, kind), one
     coalesced message per bucket in first-seen order, and at most one
     refinement round per group. *)
  and ship_batches w ~at q ~cz =
    let n = Vec.length sink.Exec.spawns in
    for i = 0 to n - 1 do
      let kid = Vec.get sink.Exec.spawns i in
      Metrics.(incr metrics Counter.spawned);
      let dst = route q kid in
      let key = (2 * dst) + Bool.to_int (Exec.msg_kind q.program kid = Metrics.Result_msg) in
      if bucket_size.(key) = 0 then Vec.push bucket_keys key;
      bucket_size.(key) <- bucket_size.(key) + 1;
      Vec.push kid_keys key;
      if dst <> w.id then ignore (profile_hop ~src_vertex:(Vec.get parents i) q kid : bool)
    done;
    for i = n - 1 downto 0 do
      let key = Vec.get kid_keys i in
      bucket_travs.(key) <- Vec.get sink.Exec.spawns i :: bucket_travs.(key)
    done;
    let cost = ref Sim_time.zero in
    for b = 0 to Vec.length bucket_keys - 1 do
      let key = Vec.get bucket_keys b in
      let dst = key / 2 in
      let kind = if key land 1 = 1 then Metrics.Result_msg else Metrics.Traverser_msg in
      if dst <> w.id then Metrics.(incr metrics Counter.coalesced_msgs);
      cost :=
        Sim_time.add !cost
          (send ~at ~src:w.id ~dst ~kind
             (P_trav_batch { qid = q.qid; travs = bucket_travs.(key); cz }));
      bucket_size.(key) <- 0;
      bucket_travs.(key) <- []
    done;
    Vec.clear kid_keys;
    Vec.clear bucket_keys;
    if adaptive_on then Sim_time.add !cost (maybe_adapt ~at ~src:w.id ~cz) else !cost
  and quantum w =
    (* [awake] stays true while the quantum runs: self-sends and deferred
       events need no extra wakeup, and the tail of this function either
       reschedules (staying awake) or goes to sleep explicitly. *)
    w.awake <- true;
    let quantum_start = max (Cluster.now cluster) w.busy_until in
    let released = fault_release w.id quantum_start in
    if Sim_time.compare released quantum_start > 0 then
      (* Paused node: the whole quantum defers to the window's end.
         [awake] stays true so no duplicate quantum gets scheduled. *)
      Event_queue.schedule_at events ~time:released ~tag:(Cluster.worker_tag cluster w.id)
        quantum_thunks.(w.id)
    else run_quantum w quantum_start
  and run_quantum w quantum_start =
    (* An idle gap breaks the worker chain: the next execution's wait is
       genuinely its own queue/arrival time, not serial occupancy. *)
    if cz_on && Sim_time.compare quantum_start w.busy_until > 0 then begin
      w.cz_last <- -1;
      w.cz_last_qid <- -1
    end;
    let local = ref quantum_start in
    (* Dataflow flavors poll every live operator instance each quantum. *)
    if options.flavor <> Graphdance && !active_op_count > 0 then
      local :=
        Sim_time.add !local
          (fault_scale w.id (costs.Cluster.operator_sched * !active_op_count));
    drain w local;
    (* Coalesced weights ship when the worker idles or once enough have
       merged locally to justify a message (§IV-A: they ride along with
       buffer flushes, not with every death). *)
    if Ring.is_empty w.tasks || Progress.pending_additions w.coalescer >= 256 then begin
      let flush_at = !local in
      let flush_cost = fault_scale w.id (flush_progress ~at:flush_at w) in
      if obs_on && Sim_time.compare flush_cost Sim_time.zero > 0 then
        Pstm_obs.Trace.span trace ~tid:w.id ~name:"flush_progress" ~ts:flush_at ~dur:flush_cost ();
      local := Sim_time.add !local flush_cost
    end;
    if Ring.is_empty w.tasks then begin
      (* Out of work: flush the tier-1 buffers before sleeping (§IV-B). *)
      w.awake <- false;
      let flush_at = !local in
      let flush_cost = fault_scale w.id (Channel.flush_worker (channel ()) ~at:flush_at ~worker:w.id) in
      if obs_on && Sim_time.compare flush_cost Sim_time.zero > 0 then
        Pstm_obs.Trace.span trace ~tid:w.id ~name:"flush_channel" ~ts:flush_at ~dur:flush_cost ();
      local := Sim_time.add !local flush_cost
    end
    else begin
      w.awake <- true;
      Event_queue.schedule_at events ~time:!local ~tag:(Cluster.worker_tag cluster w.id)
        quantum_thunks.(w.id)
    end;
    let consumed = Sim_time.diff !local quantum_start in
    if obs_on && Sim_time.compare consumed Sim_time.zero > 0 then
      Pstm_obs.Trace.span trace ~cat:"sched" ~tid:w.id ~name:"quantum" ~ts:quantum_start
        ~dur:consumed ();
    Metrics.(add metrics Counter.busy_ns consumed);
    w.busy_total <- Sim_time.add w.busy_total consumed;
    w.busy_until <- !local
  in
  Array.iter (fun w -> quantum_thunks.(w.id) <- (fun () -> quantum w)) workers;
  channel_ref :=
    Some (Channel.create cluster channel_config ~dummy:(P_cleanup { qid = -1 }) ~deliver);
  (* --- Scoped cancellation ---------------------------------------------
     The per-query generalization of the PR 3 deadline path: instead of
     "the whole run hit its deadline", "this query is done now". The
     query flips inactive (in-flight traversers die on arrival, straggler
     weights drop at flush), incomplete phase trackers time out, and
     every worker's memo entries for the query are reclaimed — so the
     end-of-run sanitizer's memo-emptiness invariant holds through
     mid-flight cancellation. *)
  let terminate ~at qid outcome =
    let q = query qid in
    if q.outcome = None then begin
      q.outcome <- Some outcome;
      q.active <- false;
      if q.launched then begin
        active_op_count := !active_op_count - Program.n_steps q.program;
        n_active := !n_active - 1;
        Array.iteri
          (fun phase tr ->
            if not (Progress.is_complete tr) then tracker_event "timeout" ~qid ~phase)
          q.trackers
      end;
      (* The scoped reclaim also covers progress bookkeeping: weight
         merged but not yet flushed will never reach a tracker. *)
      Array.iter
        (fun w ->
          Memo.clear_query w.memo qid;
          Progress.discard_query w.coalescer ~qid)
        workers;
      if obs_on then
        Pstm_obs.Trace.instant trace ~tid:(Engine.query_track qid)
          ~name:(Engine.outcome_name outcome) ~ts:at ();
      !on_terminal qid outcome
    end
  in
  (* --- Submission ------------------------------------------------------ *)
  let next_qid = ref 0 in
  let submit_sub (s : Engine.submission) =
    let qid = !next_qid in
    incr next_qid;
    let program = s.Engine.program in
    let q =
      {
        qid;
        program;
        coordinator = qid mod n_workers;
        tenant = s.Engine.tenant;
        priority = s.Engine.priority;
        submitted = s.Engine.at;
        outcome = None;
        launched = false;
        trackers =
          Array.init (Program.n_phases program) (fun _ -> Progress.tracker ~target:Weight.root);
        touched = Bitset.create n_workers;
        combine_step = -1;
        combine_expected = 0;
        combine_received = 0;
        combine_acc = None;
        rows = Vec.create ~dummy:[||];
        active = true;
        setup_acks = 0;
      }
    in
    assert (Vec.length queries = qid);
    Vec.push queries (Some q);
    (* A submission whose arrival is already in the past (a service
       dispatching a queued query) launches immediately; latency still
       measures from [s.at], so queue wait counts against the SLO. *)
    let launch_at = max (Event_queue.now events) s.Engine.at in
    Event_queue.schedule_at events ~time:launch_at ~tag:0 (fun () ->
        if q.outcome <> None then () (* cancelled before it ever launched *)
        else begin
          q.launched <- true;
          if obs_on then
            Pstm_obs.Trace.instant trace ~tid:(Engine.query_track qid) ~name:"submit"
              ~ts:launch_at
              ~args:
                [
                  ("query", Pstm_obs.Trace.S (Program.name program));
                  ("coordinator", Pstm_obs.Trace.I q.coordinator);
                ]
              ();
          active_op_count := !active_op_count + Program.n_steps program;
          n_active := !n_active + 1;
          for phase = 0 to Program.n_phases program - 1 do
            tracker_event "register" ~qid ~phase
          done;
          let cz_sub =
            if not cz_on then -1
            else begin
              let s0 = Pstm_obs.Causal.node causal ~qid ~name:"submit" ~ts:launch_at in
              Pstm_obs.Causal.set_submit causal ~qid s0;
              s0
            end
          in
          match options.flavor with
          | Graphdance ->
            (* PSTM programs need no deployment: traversers carry their
               step index and workers interpret the shared plan. *)
            launch_entries ~at:launch_at ~cz:cz_sub q
          | Banyan_like | Gaia_like ->
            (* Dataflow engines deploy the operator graph to every worker
               and wait for acknowledgements before execution begins —
               the per-worker instantiation the paper blames for their
               limited scaling. *)
            q.setup_acks <- n_workers;
            for dst = 0 to n_workers - 1 do
              deliver dst (P_setup { qid; cz = cz_sub })
            done
        end);
    (match s.Engine.deadline with
    | None -> ()
    | Some d ->
      (* The query's own latency budget: past [at + d] it is cut off as
         Timed_out — the scoped form of the run-level deadline. *)
      let t = max launch_at (Sim_time.add s.Engine.at d) in
      Event_queue.schedule_at events ~time:t ~tag:0 (fun () ->
          terminate ~at:t qid Engine.Timed_out));
    qid
  in
  (* --- Drive / finish --------------------------------------------------- *)
  let drive ~until =
    match (until, deadline) with
    | None, None -> Event_queue.run_to_completion events
    | None, Some t | Some t, None -> Event_queue.run_until events ~time:t
    | Some t, Some d -> Event_queue.run_until events ~time:(min t d)
  in
  let finish () =
    let n_queries = !next_qid in
    (* Graceful degradation: when delivery was cut short — a deadline
       truncated the run, or the reliable channel abandoned a packet after
       max retries — some queries end unfinished and some in-flight
       P_cleanup broadcasts never land. Those queries report TIMEOUT; here
       the coordinator reclaims their state so nothing wedges the tracker
       or leaks memo entries into the next run. The loop walks qids in
       order (not the hashtable) to stay deterministic. *)
    let abandoned = Metrics.(get metrics Counter.abandoned) > 0 in
    if deadline <> None || abandoned then
      for qid = 0 to n_queries - 1 do
        let q = query qid in
        if q.outcome = None then begin
          q.outcome <- Some Engine.Timed_out;
          q.active <- false;
          Array.iteri
            (fun phase tr ->
              if not (Progress.is_complete tr) then tracker_event "timeout" ~qid ~phase)
            q.trackers;
          !on_terminal qid Engine.Timed_out
        end;
        Array.iter (fun w -> Memo.clear_query w.memo qid) workers
      done;
    (* Sanitizer post-conditions. Termination of every query only holds
       when delivery ran to completion (no deadline, nothing abandoned) —
       the reliable channel makes it hold even under drop/dup/delay
       faults; queries cancelled or timed out per-query are terminal by
       construction. Memo emptiness holds always, thanks to the scoped
       reclaim at each terminal transition. *)
    if check then begin
      if deadline = None && not abandoned then begin
        for qid = 0 to n_queries - 1 do
          let q = query qid in
          if q.outcome = None then
            Engine.check_fail "async: query %d never terminated (weight lost or tracker wedged)"
              qid
        done;
        (* Every protocol-monitor instance must have reached a terminal
           state: packets acked, migrations installed, trackers released. *)
        List.iter
          (fun mon ->
            match Protocol.finish mon with
            | None -> ()
            | Some why -> Engine.check_fail "async: %s" why)
          (List.rev !monitors);
        (* No weight may be stranded in a coalescer: parked weight here
           means some (qid, phase) escaped both the flush path and the
           scoped reclaim at its terminal transition. *)
        Array.iter
          (fun w ->
            if not (Progress.is_empty w.coalescer) then
              Engine.check_fail "async: worker %d holds unflushed coalesced weight at finish"
                w.id)
          workers
      end;
      Array.iter
        (fun w ->
          let n = Memo.live_entries w.memo in
          if n > 0 then
            Engine.check_fail
              "async: worker %d holds %d memo entries after all queries completed" w.id n)
        workers
    end;
    (* Surface ring truncation: a trace that silently dropped events would
       otherwise read as a complete record. *)
    if obs_on then Metrics.(set metrics Counter.trace_dropped (Pstm_obs.Trace.dropped trace));
    let reports =
      Array.init n_queries (fun qid ->
          let q = query qid in
          {
            Engine.qid;
            name = Program.name q.program;
            tenant = q.tenant;
            priority = q.priority;
            submitted = q.submitted;
            outcome = (match q.outcome with Some o -> o | None -> Engine.Timed_out);
            rows = Vec.to_list q.rows;
          })
    in
    {
      Engine.engine = flavor_name options.flavor;
      queries = reports;
      makespan = Cluster.now cluster;
      metrics;
      events = Event_queue.executed events;
      worker_busy = Array.map (fun w -> w.busy_total) workers;
    }
  in
  {
    Engine.sh_name = flavor_name options.flavor;
    sh_submit = submit_sub;
    sh_cancel =
      (fun ~qid ~at ->
        let t = max at (Event_queue.now events) in
        Event_queue.schedule_at events ~time:t ~tag:0 (fun () ->
            terminate ~at:t qid Engine.Cancelled));
    sh_at =
      (fun t f -> Event_queue.schedule_at events ~time:(max t (Event_queue.now events)) ~tag:0 f);
    sh_now = (fun () -> Event_queue.now events);
    sh_on_terminal = (fun f -> on_terminal := f);
    sh_drive = drive;
    sh_finish = finish;
  }

let run ?options ?common ~cluster_config ~channel_config ~graph
    (submissions : Engine.submission array) =
  Engine.run_via_start
    (fun ?common ~graph () -> create ?options ?common ~cluster_config ~channel_config ~graph ())
    ?common ~graph submissions
