(* The asynchronous PSTM runtime — GraphDance's execution engine (§IV).

   One single-threaded worker per graph partition, each with its own memo
   and weight coalescer. Traversers route to the worker that owns their
   next step's partition key (the h_psi of §III-A), execute there through
   the shared step interpreter, and spawn children asynchronously — no
   global barriers. Termination per phase is detected by the weight
   tracker on the query's coordinator worker; aggregation phases combine
   per-partition partials on demand (§III-C).

   [create] composes the engine's seams — the query lifecycle
   ({!Lifecycle}), the cost model ({!Cost_model}), the progress tier
   ({!Progress_tier}) and vertex migration ({!Migration}) — around what
   is its own: the worker loop, the staged [run_group] and the two wire
   formats.

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
open Payload

type flavor =
  | Graphdance
  | Banyan_like
  | Gaia_like

let flavor_name = function
  | Graphdance -> "graphdance"
  | Banyan_like -> "banyan-like"
  | Gaia_like -> "gaia-like"

(* Online repartitioning knobs, consulted when [partition = Adaptive]
   (see {!Migration}). *)
type adaptive_options = {
  refine_interval : Sim_time.t; (* min sim-time between refinement rounds *)
  min_traffic : int; (* profiled remote hops before a round may trigger *)
}

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
    (* A round needs a substantial fresh profile before it may fire:
       refining on a few hundred early observations chases noise —
       thousands of vertices migrate toward a local optimum of a sample
       that does not resemble the workload, and the next round drags
       them back. *)
    adaptive = { refine_interval = Sim_time.us 50; min_traffic = 4096 };
  }

(* Tasks per worker scheduling quantum. *)
let quantum_tasks = 64

(* Randomness of the entry-weight splits and the workers' PRNGs. *)
let seed = 0x5157

type worker = {
  id : int;
  memo : Memo.t; (* private, or node-shared under [shared_state] *)
  tasks : int Ring.t; (* message handles *)
  prng : Prng.t;
  mutable busy_until : Sim_time.t;
  mutable clock : Sim_time.t;
      (* the running quantum's clock: its start plus the CPU time charged
         so far. A field rather than a ref per quantum, so a quantum
         allocates nothing; quanta never nest. *)
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

(* Build an open engine session ({!Engine.service_handle}); [run] below
   is the submit-all/drive/finish wrapper over it. *)
let create ?(options = default_options) ?(common = Engine.Common.default) ~cluster_config
    ~channel_config ~graph () =
  let { Engine.Common.obs; check; deadline; faults; batched; chooser; mutation } = common in
  let cluster = Cluster.create cluster_config in
  (* Fault plane (if any) attaches before the channel is created, so the
     channel sees it and switches to reliable delivery. *)
  let faults = Option.map Faults.create faults in
  Cluster.set_faults cluster faults;
  Cluster.set_mutation cluster mutation;
  let events = Cluster.events cluster in
  (* Schedule exploration: an installed chooser permutes same-timestamp
     ties; [None] (the default) keeps canonical insertion order. *)
  Event_queue.set_chooser events chooser;
  let metrics = Cluster.metrics cluster in
  let costs = Cluster.costs cluster in
  let n_workers = Cluster.n_workers cluster in
  let life =
    Lifecycle.create ~name:(flavor_name options.flavor) ~n_workers ~common
      ~now:(fun () -> Event_queue.now events)
      ~schedule:(fun time f -> Event_queue.schedule_at events ~time ~tag:0 f)
      ()
  in
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
     tracker lifecycle; inert without [check]. *)
  let channel_monitor = Lifecycle.monitor life Protocol.channel in
  let migration_monitor = Lifecycle.monitor life Protocol.migration in
  let tracker_monitor = Lifecycle.monitor life Protocol.tracker in
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
     recorder's own enabled flag), so the disabled path costs one branch.
     Causal tracing (EXPLAIN LATENCY): every hand-off registers a DAG
     node; the producing context rides the payload's [cz] field. *)
  let obs_on = Pstm_obs.Recorder.enabled obs in
  let trace = Pstm_obs.Recorder.trace obs in
  let opstats = Pstm_obs.Recorder.opstats obs in
  let causal = Pstm_obs.Recorder.causal obs in
  let cz_on = Pstm_obs.Causal.enabled causal in
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
  let seed_prng = Prng.create seed in
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
          tasks = Ring.create ~dummy:(-1);
          prng = Prng.split seed_prng;
          busy_until = Sim_time.zero;
          clock = Sim_time.zero;
          busy_total = Sim_time.zero;
          awake = false;
          cz_last = -1;
          cz_last_qid = -1;
          scan = Exec.partition_scan graph members;
          scratch = lazy (Batch_exec.scratch ~graph);
        })
  in
  let model =
    Cost_model.create ~costs ~shared_state:options.shared_state ~workers_per_node
      ~swapping:
        (match options.memory_capacity with
        | Some capacity -> Graph.bytes graph > capacity * Cluster.n_nodes cluster
        | None -> false)
  in
  (* --- Messages, channel and routing ------------------------------------ *)
  let slab = Payload.slab () in
  let channel_ref = ref None in
  let channel () = Option.get !channel_ref in
  (* One prebuilt [quantum w] thunk per worker, filled in once [quantum]
     is defined, so scheduling a quantum allocates nothing. *)
  let quantum_thunks = Array.make n_workers ignore in
  let wake w =
    if not w.awake then begin
      w.awake <- true;
      let time = max (Cluster.now cluster) w.busy_until in
      let time = fault_release w.id time in
      Event_queue.schedule_at events ~time ~tag:(Cluster.worker_tag cluster w.id)
        quantum_thunks.(w.id)
    end
  in
  let deliver dst h =
    if cz_on then
      Payload.arrive slab causal ~ts:(Cluster.now cluster)
        (if Channel.delivering_retransmitted (channel ()) then Pstm_obs.Causal.Retransmit
         else Pstm_obs.Causal.Network)
        h;
    let w = workers.(dst) in
    Ring.push w.tasks h;
    wake w
  in
  let send ~at ~src ~dst ~kind h =
    if src = dst then begin
      (* Same worker: a plain queue push, no messaging machinery (and no
         causal hop: the consumer binds straight to the producer). The
         wake is a no-op while the worker's own quantum is running, but
         matters when the sender is the submission path or a
         network-thread event acting on the worker's behalf. *)
      Ring.push workers.(dst).tasks h;
      wake workers.(dst);
      Sim_time.zero
    end
    else
      Channel.send (channel ()) ~at ~src_worker:src ~dst_worker:dst ~kind
        ~bytes:(Payload.bytes slab h) h
  in
  (* A query's last phase completed. Memos are query-scoped: broadcast
     the automatic clear of §III-B, one message per destination. *)
  let complete ~at ~cz ~w (q : Progress_tier.q) =
    let qid = q.qid in
    let released = max at (Cluster.now cluster) in
    let cost = ref Sim_time.zero in
    Lifecycle.end_query life ~at q (Engine.Completed released) (fun () ->
        (* Terminal node: the walk back from here along binding edges is
           the query's critical path, and its segments sum to the latency. *)
        if cz_on then
          Pstm_obs.Causal.set_release causal ~qid
            (Pstm_obs.Causal.hop causal ~qid ~name:"release" ~ts:released ~src:cz
               Pstm_obs.Causal.Tracker);
        Cost_model.retire model q.program;
        for dst = 0 to n_workers - 1 do
          cost :=
            Sim_time.add !cost
              (send ~at ~src:w ~dst ~kind:Metrics.Control_msg
                 (Payload.msg slab ~qid ~cz:(-1) P_cleanup))
        done);
    !cost
  in
  let tier =
    Progress_tier.create ~graph ~costs ~metrics ~n_workers
      ~coalescing:(options.weight_coalescing || options.flavor <> Graphdance)
      ~per_traverser:(options.flavor = Graphdance) ~responders:agg_responders ~check ?mutation ~obs
      ~on_event:tracker_event ~live:(Lifecycle.live life) ~slab ~send ~complete ()
  in
  let centralized op =
    match (options.flavor, op) with
    | Gaia_like, (Step.Dedup _ | Step.Visit _ | Step.Join _ | Step.Aggregate _) -> true
    | _ -> false
  in
  let is_live qid = Option.is_some (Lifecycle.live life qid) in
  let mig =
    Migration.create ~graph ~partition ~adaptive:adaptive_on
      ~refine_interval:options.adaptive.refine_interval ~min_traffic:options.adaptive.min_traffic
      ~centralized ~cost:model ~metrics ~obs ?mutation ~on_event:mig_event ~live:is_live ~slab
      ~send ()
  in
  (* h_psi ({!Exec.route}), except that Gaia runs its stateful steps on
     worker 0. *)
  let route (q : Progress_tier.q) ~vertex ~step ~regs =
    if centralized (Program.step q.program step).Step.op then 0
    else Exec.route ~graph ~partition ~coordinator:q.coordinator q.program ~vertex ~step ~regs
  in
  (* The per-traverser wire format: one P_trav to the worker that owns
     the traverser's next step. A profiled remote hop may trigger a
     refinement round. *)
  let dispatch ~at ~src ~src_vertex ~cz (q : Progress_tier.q) ~vertex ~step ~weight ~regs =
    let dst = route q ~vertex ~step ~regs in
    let kind = Exec.msg_kind q.program step in
    let cost =
      send ~at ~src ~dst ~kind (Payload.trav slab ~qid:q.qid ~cz ~vertex ~step ~weight ~regs)
    in
    if dst <> src && Migration.profile_hop mig ~src_vertex q.program ~vertex ~step ~regs then
      Sim_time.add cost (Migration.maybe_adapt mig ~at ~src ~cz)
    else cost
  in
  let launch_entries ~at ~cz (q : Progress_tier.q) =
    let entries = Program.entries q.program in
    let shares = Weight.split seed_prng Weight.root ~n:(Array.length entries) in
    Array.iteri
      (fun i entry ->
        let regs = Array.make (Program.n_registers q.program) Value.Null in
        let root ~weight = Payload.trav slab ~qid:q.qid ~cz ~vertex:0 ~step:entry ~weight ~regs in
        match (Program.step q.program entry).Step.op with
        | Step.Scan _ ->
          (* Scans start everywhere: one seed per worker, each scanning
             its own partition. *)
          let seeds = Weight.split seed_prng shares.(i) ~n:n_workers in
          Pstm_obs.Opstats.seed opstats n_workers;
          Array.iteri
            (fun dst seed ->
              ignore
                (send ~at ~src:q.coordinator ~dst ~kind:Metrics.Control_msg (root ~weight:seed)))
            seeds
        | _ ->
          Pstm_obs.Opstats.seed opstats 1;
          deliver q.coordinator (root ~weight:shares.(i)))
      entries
  in
  (* ---- Task execution --------------------------------------------------- *)
  (* A message for a live query, consumed under context [cz]. *)
  let control w ~at ~cz (q : Progress_tier.q) = function
    | P_agg_flush { agg_step } ->
      Sim_time.add (Cost_model.memo_op model)
        (Progress_tier.respond tier ~at ~w:w.id w.memo q ~agg_step ~cz)
    | (P_agg_partial _ | P_agg_empty) as partial -> begin
      let agg_step = q.ext.combine_step in
      match Progress_tier.combine tier q partial with
      | None -> Cost_model.memo_op model
      | Some regs ->
        Metrics.(incr metrics Counter.spawned);
        (* The continuation enters the next phase from outside any step. *)
        Pstm_obs.Opstats.seed opstats 1;
        (* The combine binds to the last partial in: the barrier wait is
           exactly what the straggling responder cost. *)
        let cz =
          Pstm_obs.Causal.hop causal ~qid:q.qid ~name:"agg-combine" ~ts:at ~src:cz
            Pstm_obs.Causal.Barrier
        in
        let step = (Program.step q.program agg_step).Step.next in
        Sim_time.add (Cost_model.memo_op model)
          (dispatch ~at ~src:w.id ~src_vertex:(-1) ~cz q ~vertex:0 ~step ~weight:Weight.root ~regs)
    end
    | P_setup ->
      (* Dataflow flavors instantiate every operator of the query's plan
         (plus its channels) in this worker before execution can start. *)
      let instantiate = 8 * Program.n_steps q.program * costs.Cluster.operator_sched in
      let cz =
        Pstm_obs.Causal.hop causal ~qid:q.qid ~name:"setup" ~ts:at ~src:cz Pstm_obs.Causal.Compute
      in
      Sim_time.add instantiate
        (send ~at ~src:w.id ~dst:q.coordinator ~kind:Metrics.Control_msg
           (Payload.msg slab ~qid:q.qid ~cz P_setup_ack))
    | P_setup_ack ->
      q.ext.setup_acks <- q.ext.setup_acks - 1;
      if q.ext.setup_acks = 0 then begin
        (* Deployment barrier: launch binds to the last ack in. *)
        let cz =
          Pstm_obs.Causal.hop causal ~qid:q.qid ~name:"launch" ~ts:at ~src:cz
            Pstm_obs.Causal.Barrier
        in
        launch_entries ~at ~cz q;
        costs.Cluster.operator_sched * Program.n_steps q.program
      end
      else costs.Cluster.operator_sched
    | _ -> assert false
  in
  let process w ~at ~qid ~cz = function
    | P_trav | P_trav_batch | P_progress -> assert false (* run by [drain] *)
    | P_cleanup ->
      Memo.clear_query w.memo qid;
      Cost_model.memo_op model
    | (P_migrate _ | P_migrate_data _) as p -> Migration.handle mig ~at ~w:w.id w.memo w.tasks ~cz p
    | (P_agg_flush _ | P_agg_partial _ | P_agg_empty | P_setup | P_setup_ack) as p -> begin
      (* A cancelled / timed-out query's stragglers are dropped. *)
      match Lifecycle.live life qid with None -> Sim_time.zero | Some q -> control w ~at ~cz q p
    end
  in
  (* ---- Staged traverser execution -------------------------------------
     Every traverser executes through [run_group], over a group of
     traversers sharing a (qid, step), in four stages: gate (migration
     forward / stash), execute, account (conservation check, cost,
     counters, opstats, first touch, the causal execution node, the trace
     span) and hand off (children, rows to the tracker, finished weight
     to the coalescer). [Engine.Common.batched] selects three settings of
     this one path:
     - staging: a quantum stages its traversers into per-(qid, step)
       groups and runs them, in first-seen order, once its budget is
       spent; or it runs each traverser as it pops, a group of one that
       pays one step dispatch per traverser;
     - fusion: fusable chains run as Batch_exec CSR-range scans, or not;
     - wire format: one P_trav_batch per (destination, kind) bucket, or
       one P_trav per child.
     Staging is strictly intra-quantum, so no weight is ever parked
     across quanta and termination detection is untouched.

     The engine is single-threaded and no group's execution nests inside
     another's, so one set of accumulators serves every worker, reused
     from group to group: a group of one allocates nothing here. *)
  let solo = Staging.group () in (* the group of one, when staging is off *)
  let staged = Staging.create () in
  (* What executing the current group produced, summed over its
     elements, with each child's parent vertex (for traffic profiling). *)
  let sink = Exec.sink () in
  let spawns = sink.Exec.spawns in
  (* Batch-wire buckets, keyed 2 x destination + 1 for result messages:
     each open bucket's batch id in the slab's batch table, or -1. *)
  let bucket_keys = Vec.create ~dummy:0 in (* first-seen order *)
  let bucket_batch = Array.make (2 * n_workers) (-1) in
  (* Execute stage: the fused Batch_exec chain over the whole group when
     fusion is on and the step is fusable, the scalar interpreter per
     element otherwise. Either way [sink] ends up holding the group's
     children, rows, finished weight and data / memo volume. *)
  let execute w (q : Progress_tier.q) (g : Staging.group) =
    Exec.clear sink;
    if batched && Batch_exec.fusable ~graph q.program g.step then
      Batch_exec.run ~graph ~scratch:(Lazy.force w.scratch) ~prng:w.prng ~program:q.program
        ~step:g.step g.travs sink
    else begin
      let travs = g.travs in
      for i = 0 to Travs.length travs - 1 do
        Exec.run sink ~graph ~memo:w.memo ~prng:w.prng ~qid:q.qid ~program:q.program ~scan:w.scan
          ~vertex:(Travs.vertex travs i) ~step:(Travs.step travs i)
          ~weight:(Travs.weight travs i) ~regs:(Travs.regs travs i)
      done;
      if not (Vec.is_empty sink.rows) then begin
        (* Rows are only produced by Emit, which routes to the coordinator
           first — so they land here, at the coordinator itself. *)
        assert (w.id = q.coordinator);
        Vec.append ~into:q.rows sink.rows
      end
    end
  in
  (* P_trav wire: one message per child, in execution order. *)
  let ship_each w ~at q ~cz =
    let cost = ref Sim_time.zero in
    for i = 0 to Travs.length spawns - 1 do
      Metrics.(incr metrics Counter.spawned);
      cost :=
        Sim_time.add !cost
          (dispatch ~at ~src:w.id ~src_vertex:(Vec.get sink.parents i) ~cz q
             ~vertex:(Travs.vertex spawns i) ~step:(Travs.step spawns i)
             ~weight:(Travs.weight spawns i) ~regs:(Travs.regs spawns i))
    done;
    !cost
  in
  (* P_trav_batch wire: children grouped by (destination, kind), one
     coalesced message per bucket in first-seen order, and at most one
     refinement round per group. Each child goes straight into its
     bucket's pooled batch lanes, in execution order. *)
  let ship_batches w ~at (q : Progress_tier.q) ~cz =
    for i = 0 to Travs.length spawns - 1 do
      let vertex = Travs.vertex spawns i and step = Travs.step spawns i in
      let regs = Travs.regs spawns i in
      Metrics.(incr metrics Counter.spawned);
      let dst = route q ~vertex ~step ~regs in
      let key = (2 * dst) + Bool.to_int (Exec.msg_kind q.program step = Metrics.Result_msg) in
      if bucket_batch.(key) < 0 then begin
        bucket_batch.(key) <- Payload.batch_open slab;
        Vec.push bucket_keys key
      end;
      Payload.batch_push slab bucket_batch.(key) ~vertex ~step ~weight:(Travs.weight spawns i) ~regs;
      if dst <> w.id then
        ignore
          (Migration.profile_hop mig ~src_vertex:(Vec.get sink.parents i) q.program ~vertex ~step
             ~regs
            : bool)
    done;
    let cost = ref Sim_time.zero in
    for b = 0 to Vec.length bucket_keys - 1 do
      let key = Vec.get bucket_keys b in
      let dst = key / 2 in
      let kind = if key land 1 = 1 then Metrics.Result_msg else Metrics.Traverser_msg in
      if dst <> w.id then Metrics.(incr metrics Counter.coalesced_msgs);
      let h = Payload.trav_batch slab ~qid:q.qid ~cz bucket_batch.(key) in
      bucket_batch.(key) <- -1;
      cost := Sim_time.add !cost (send ~at ~src:w.id ~dst ~kind h)
    done;
    Vec.clear bucket_keys;
    Sim_time.add !cost (Migration.maybe_adapt mig ~at ~src:w.id ~cz)
  in
  let run_group w ~at (g : Staging.group) =
    match Lifecycle.live life g.qid with
    | None -> Sim_time.zero
    | Some q ->
      let gated = Migration.gate mig ~at ~w:w.id ~qid:q.qid q.program g.travs g.czs in
      let n = Travs.length g.travs in
      if n = 0 then gated
      else begin
        execute w q g;
        (* Account. *)
        let qid = q.qid and step = g.step in
        let op = Step.op_name (Program.step q.program step).Step.op in
        if check then begin
          (* Theorem 1 over the group: inflow = children + rows + finished. *)
          if not (Exec.conserves ~weight:(Travs.total_weight g.travs) sink) then
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
        let base = Cost_model.step model sink in
        if obs_on then
          Pstm_obs.Opstats.record opstats ~step ~n ~out:(Travs.length spawns)
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
              let c = Vec.get g.czs i in
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
          else
            Sim_time.add cost
              (Progress_tier.receive tier ~at ~cz ~w:w.id q phase sink.row_weight)
        in
        let cost =
          if Weight.is_zero sink.finished then cost
          else
            Sim_time.add cost
              (Progress_tier.finish_weight tier ~at ~cz ~w:w.id q phase sink.finished)
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
  in
  (* ---- Worker scheduling loop ------------------------------------------- *)
  (* Charge [cost] to [w]'s running quantum. *)
  let advance w cost = w.clock <- Sim_time.add w.clock (fault_scale w.id cost) in
  let take w ~qid ~cz ~vertex ~step ~weight ~regs =
    if batched then Staging.add staged ~qid ~cz ~vertex ~step ~weight ~regs
    else begin
      Staging.single solo ~qid ~cz ~vertex ~step ~weight ~regs;
      advance w (run_group w ~at:w.clock solo)
    end
  in
  (* Consuming a message: read its lanes and release its slot (and a
     batch's arrays once its elements are staged), then run it. *)
  let drain w =
    let budget = ref quantum_tasks in
    while !budget > 0 && not (Ring.is_empty w.tasks) do
      let h = Ring.pop w.tasks in
      let qid = Payload.qid slab h and cz = Payload.cz slab h in
      let payload = Payload.payload slab h in
      match payload with
      | P_trav ->
        let vertex = Payload.vertex slab h and step = Payload.step slab h in
        let weight = Payload.weight slab h and regs = Payload.regs slab h in
        Payload.release slab h;
        decr budget;
        take w ~qid ~cz ~vertex ~step ~weight ~regs
      | P_trav_batch ->
        let id = Payload.batch slab h in
        Payload.release slab h;
        let vsteps = Payload.batch_vsteps slab id and weights = Payload.batch_weights slab id in
        let regs = Payload.batch_regs slab id in
        (* Each element charges the budget: a batch is cheaper to
           execute, not free to schedule. *)
        for i = 0 to Payload.batch_length slab id - 1 do
          decr budget;
          take w ~qid ~cz ~vertex:(Payload.vstep_vertex vsteps.(i))
            ~step:(Payload.vstep_step vsteps.(i)) ~weight:weights.(i) ~regs:regs.(i)
        done;
        Payload.batch_release slab id
      | P_progress ->
        let phase = Payload.phase slab h and weight = Payload.weight slab h in
        Payload.release slab h;
        decr budget;
        (* A cancelled / timed-out query's stragglers are dropped. *)
        let cost =
          match Lifecycle.live life qid with
          | None -> Sim_time.zero
          | Some q -> Progress_tier.receive tier ~at:w.clock ~cz ~w:w.id q phase weight
        in
        advance w cost
      | payload ->
        Payload.release slab h;
        decr budget;
        advance w (process w ~at:w.clock ~qid ~cz payload)
    done;
    for i = 0 to Staging.length staged - 1 do
      advance w (run_group w ~at:w.clock (Staging.get staged i))
    done;
    Staging.clear staged
  in
  let run_quantum w quantum_start =
    (* An idle gap breaks the worker chain: the next execution's wait is
       genuinely its own queue/arrival time, not serial occupancy. *)
    if cz_on && Sim_time.compare quantum_start w.busy_until > 0 then begin
      w.cz_last <- -1;
      w.cz_last_qid <- -1
    end;
    w.clock <- quantum_start;
    (* Dataflow flavors poll every live operator instance each quantum. *)
    if options.flavor <> Graphdance then begin
      let polling = Cost_model.polling model in
      if Sim_time.compare polling Sim_time.zero > 0 then advance w polling
    end;
    drain w;
    if Ring.is_empty w.tasks || Progress_tier.flush_due tier ~w:w.id then begin
      let flush_at = w.clock in
      let flush_cost = fault_scale w.id (Progress_tier.flush tier ~at:flush_at ~w:w.id) in
      if obs_on && Sim_time.compare flush_cost Sim_time.zero > 0 then
        Pstm_obs.Trace.span trace ~tid:w.id ~name:"flush_progress" ~ts:flush_at ~dur:flush_cost ();
      w.clock <- Sim_time.add w.clock flush_cost
    end;
    if Ring.is_empty w.tasks then begin
      (* Out of work: flush the tier-1 buffers before sleeping (§IV-B). *)
      w.awake <- false;
      let flush_at = w.clock in
      let flush_cost = fault_scale w.id (Channel.flush_worker (channel ()) ~at:flush_at ~worker:w.id) in
      if obs_on && Sim_time.compare flush_cost Sim_time.zero > 0 then
        Pstm_obs.Trace.span trace ~tid:w.id ~name:"flush_channel" ~ts:flush_at ~dur:flush_cost ();
      w.clock <- Sim_time.add w.clock flush_cost
    end
    else begin
      w.awake <- true;
      Event_queue.schedule_at events ~time:w.clock ~tag:(Cluster.worker_tag cluster w.id)
        quantum_thunks.(w.id)
    end;
    let consumed = Sim_time.diff w.clock quantum_start in
    if obs_on && Sim_time.compare consumed Sim_time.zero > 0 then
      Pstm_obs.Trace.span trace ~cat:"sched" ~tid:w.id ~name:"quantum" ~ts:quantum_start
        ~dur:consumed ();
    Metrics.(add metrics Counter.busy_ns consumed);
    w.busy_total <- Sim_time.add w.busy_total consumed;
    w.busy_until <- w.clock
  in
  let quantum w =
    (* [awake] stays true while the quantum runs: self-sends and deferred
       events need no extra wakeup, and the tail of [run_quantum] either
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
  in
  Array.iter (fun w -> quantum_thunks.(w.id) <- (fun () -> quantum w)) workers;
  channel_ref := Some (Channel.create cluster channel_config ~deliver);
  (* --- Submission, cancellation and finish ------------------------------- *)
  let launch at (q : Progress_tier.q) =
    if obs_on then
      Pstm_obs.Trace.instant trace ~tid:(Engine.query_track q.qid) ~name:"submit" ~ts:at
        ~args:
          [
            ("query", Pstm_obs.Trace.S (Program.name q.program));
            ("coordinator", Pstm_obs.Trace.I q.coordinator);
          ]
        ();
    Cost_model.launch model q.program;
    Progress_tier.launch tier q;
    let cz =
      if not cz_on then -1
      else begin
        let s0 = Pstm_obs.Causal.node causal ~qid:q.qid ~name:"submit" ~ts:at in
        Pstm_obs.Causal.set_submit causal ~qid:q.qid s0;
        s0
      end
    in
    match options.flavor with
    | Graphdance ->
      (* PSTM programs need no deployment: traversers carry their step
         index and workers interpret the shared plan. *)
      launch_entries ~at ~cz q
    | Banyan_like | Gaia_like ->
      (* Dataflow engines deploy the operator graph to every worker and
         wait for acknowledgements before execution begins — the
         per-worker instantiation the paper blames for their limited
         scaling. *)
      q.ext.setup_acks <- n_workers;
      for dst = 0 to n_workers - 1 do
        deliver dst (Payload.msg slab ~qid:q.qid ~cz P_setup)
      done
  in
  (* Scoped reclaim at a cancellation or timeout: in-flight traversers die
     on arrival, straggler weights drop at flush, incomplete phase
     trackers time out, and every worker's memo entries for the query are
     reclaimed — so the end-of-run memo-emptiness invariant holds through
     mid-flight cancellation. *)
  let terminate (q : Progress_tier.q) outcome =
    Lifecycle.end_query life q outcome (fun () ->
        if q.ext.launched then Cost_model.retire model q.program;
        Progress_tier.cancel tier q;
        Array.iter (fun w -> Memo.clear_query w.memo q.qid) workers)
  in
  let submit (s : Engine.submission) =
    (Lifecycle.submit ~launch life s (Progress_tier.state s.Engine.program)).qid
  in
  let finish () =
    (* Graceful degradation: when delivery was cut short — a deadline
       truncated the run, or the reliable channel abandoned a packet after
       max retries — some queries end unfinished and some in-flight
       P_cleanup broadcasts never land. Those queries report TIMEOUT, and
       every query's memo entries are reclaimed here so nothing leaks into
       the next run. The reliable channel makes termination hold even
       under drop/dup/delay faults otherwise. *)
    let cut = deadline <> None || Metrics.(get metrics Counter.abandoned) > 0 in
    if cut then begin
      Lifecycle.sweep life;
      Lifecycle.iter life (fun q -> Array.iter (fun w -> Memo.clear_query w.memo q.qid) workers)
    end;
    Lifecycle.check_end life "async" ~cut
      ~wedged:(fun _ -> "weight lost or tracker wedged")
      (Array.map (fun w -> w.memo) workers);
    if check && not cut then begin
      Progress_tier.check_drained tier;
      (* Every message was consumed, so every slot and every batch is
         free, and every tier-1 buffer was flushed and every NLC window
         fired. *)
      let n = Payload.in_use slab in
      if n > 0 then Engine.check_fail "async: %d message slots still in use at finish" n;
      let n = Payload.batches_in_use slab in
      if n > 0 then Engine.check_fail "async: %d message batches still in use at finish" n;
      let n = Channel.held (channel ()) in
      if n > 0 then Engine.check_fail "async: %d messages still held in channel tiers at finish" n
    end;
    Lifecycle.report life ~makespan:(Cluster.now cluster) ~metrics
      ~events:(Event_queue.executed events)
      ~worker_busy:(Array.map (fun w -> w.busy_total) workers)
  in
  Lifecycle.handle life ~submit ~terminate ~drive:(Lifecycle.drive life events) ~finish

let run ?options ?common ~cluster_config ~channel_config ~graph
    (submissions : Engine.submission array) =
  Engine.run_via_start
    (fun ?common ~graph () -> create ?options ?common ~cluster_config ~channel_config ~graph ())
    ?common ~graph submissions
