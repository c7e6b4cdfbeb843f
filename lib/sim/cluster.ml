(* Simulated cluster: topology, CPU cost model and NIC resources.

   The cluster mirrors the paper's testbed shape — [n_nodes] machines, each
   running [workers_per_node] single-threaded workers (one graph partition
   per worker, §IV). CPU work is charged from the [costs] table; outgoing
   packets serialize through a per-node NIC whose occupancy models both
   bandwidth and packet-rate limits. *)

type costs = {
  step_dispatch : Sim_time.t; (* per traverser step: dequeue + dispatch *)
  per_edge : Sim_time.t; (* adjacency-scan cost per edge *)
  per_property : Sim_time.t; (* property column read *)
  memo_op : Sim_time.t; (* memo hash probe or update *)
  progress_add : Sim_time.t; (* one weight addition (§IV-A: one integer add) *)
  progress_coalesce : Sim_time.t; (* hash-merge of a finished weight into the local memo *)
  buffer_append : Sim_time.t; (* tier-1 append under TLC *)
  flush_handoff : Sim_time.t; (* worker-to-network-thread synchronization *)
  direct_send : Sim_time.t; (* per-message syscall without TLC *)
  latch : Sim_time.t; (* base latch cost in the non-partitioned model *)
  barrier : Sim_time.t; (* BSP global barrier fixed cost *)
  operator_sched : Sim_time.t; (* dataflow per-operator scheduling overhead *)
}

let default_costs =
  {
    step_dispatch = Sim_time.ns 60;
    per_edge = Sim_time.ns 6;
    per_property = Sim_time.ns 12;
    memo_op = Sim_time.ns 45;
    progress_add = Sim_time.ns 3;
    progress_coalesce = Sim_time.ns 10;
    buffer_append = Sim_time.ns 18;
    flush_handoff = Sim_time.ns 350;
    direct_send = Sim_time.ns 1_800;
    latch = Sim_time.ns 110;
    barrier = Sim_time.us 40;
    operator_sched = Sim_time.ns 90;
  }

type config = {
  n_nodes : int;
  workers_per_node : int;
  net : Netmodel.t;
  costs : costs;
}

let default_config =
  { n_nodes = 8; workers_per_node = 16; net = Netmodel.default; costs = default_costs }

type packet_info = {
  src_node : int;
  dst_node : int;
  bytes : int;
  nic_start : Sim_time.t;
  arrival : Sim_time.t;
}

type pkt_event =
  | Pkt_send
  | Pkt_retransmit
  | Pkt_deliver
  | Pkt_dup
  | Pkt_ack
  | Pkt_abandon

type protocol_event = {
  pkt_ev : pkt_event;
  ev_src : int;
  ev_dst : int;
  ev_seq : int;
}

type t = {
  config : config;
  events : Event_queue.t;
  metrics : Metrics.t;
  nic_busy : Sim_time.t array; (* per-node NIC free-at time *)
  mutable on_packet : (packet_info -> unit) option;
      (* observability hook; the sim layer cannot depend on lib/obs, so
         tracing subscribes through this plain callback *)
  mutable on_protocol : (protocol_event -> unit) option;
      (* conformance hook; the analysis layer's compiled monitors
         subscribe here under ~check:true, [None] costs nothing *)
  mutable faults : Faults.t option;
      (* fault-injection plane; [None] (the default) is the perfect
         network and leaves every code path untouched *)
  mutable mutation : Mutation.t option;
      (* seeded protocol mutant; [None] (always, outside checker
         validation) leaves every protocol intact *)
}

let create config =
  if config.n_nodes <= 0 || config.workers_per_node <= 0 then
    invalid_arg "Cluster.create: need at least one node and one worker";
  {
    config;
    events = Event_queue.create ();
    metrics = Metrics.create ();
    nic_busy = Array.make config.n_nodes Sim_time.zero;
    on_packet = None;
    on_protocol = None;
    faults = None;
    mutation = None;
  }

let set_packet_hook t hook = t.on_packet <- hook
let set_protocol_hook t hook = t.on_protocol <- hook
let set_faults t faults = t.faults <- faults
let faults t = t.faults
let set_mutation t m = t.mutation <- m
let mutation t = t.mutation

let emit_protocol t ev ~src ~dst ~seq =
  match t.on_protocol with
  | None -> ()
  | Some hook -> hook { pkt_ev = ev; ev_src = src; ev_dst = dst; ev_seq = seq }

(* Dependence tags for the schedule explorer: events that touch the same
   (directed link | worker) commute with nothing in their class and with
   everything outside it, so tags partition same-timestamp ties into
   meaningful reorderings. Tag 0 is "untagged" (never reordered against
   its own class). The ranges are disjoint by construction. *)
let link_tag t ~src_node ~dst_node = 1 + (src_node * t.config.n_nodes) + dst_node
let worker_tag t w = 1 + (t.config.n_nodes * t.config.n_nodes) + w

let config t = t.config
let events t = t.events
let metrics t = t.metrics
let costs t = t.config.costs
let net t = t.config.net
let n_nodes t = t.config.n_nodes
let n_workers t = t.config.n_nodes * t.config.workers_per_node
let node_of_worker t w = w / t.config.workers_per_node
let same_node t w1 w2 = node_of_worker t w1 = node_of_worker t w2
let now t = Event_queue.now t.events

let workers_of_node t node =
  Array.init t.config.workers_per_node (fun i -> (node * t.config.workers_per_node) + i)

(* Serialize a packet through the source node's NIC and call [arrive arg]
   at the destination-side arrival time. [at] is the logical hand-off
   time (>= now modulo in-quantum skew, which we clamp). *)
let send_packet t ~at ~src_node ~dst_node ~bytes arrive arg =
  assert (src_node <> dst_node);
  let at = max at (now t) in
  let start = max at t.nic_busy.(src_node) in
  let occupancy = Netmodel.nic_occupancy t.config.net ~bytes in
  t.nic_busy.(src_node) <- Sim_time.add start occupancy;
  Metrics.(incr t.metrics Counter.packets);
  Metrics.(add t.metrics Counter.packet_bytes bytes);
  let arrival = Sim_time.add (Sim_time.add start occupancy) t.config.net.Netmodel.wire_latency in
  (match t.on_packet with
  | None -> ()
  | Some hook -> hook { src_node; dst_node; bytes; nic_start = start; arrival });
  let tag = link_tag t ~src_node ~dst_node in
  match t.faults with
  | None -> Event_queue.schedule_call t.events ~time:arrival ~tag arrive arg
  | Some f ->
    (* The sender always pays NIC serialization (the loss is on the
       wire); what varies is whether — and when — the receiver side runs.
       A paused destination defers processing to its release time. *)
    let verdict = Faults.packet_verdict f in
    if verdict.Faults.dropped then Metrics.(incr t.metrics Counter.fault_drops)
    else begin
      let arrival =
        if Sim_time.compare verdict.Faults.extra_delay Sim_time.zero > 0 then begin
          Metrics.(incr t.metrics Counter.fault_delays);
          Sim_time.add arrival verdict.Faults.extra_delay
        end
        else arrival
      in
      let arrival = Faults.release f ~node:dst_node ~at:arrival in
      Event_queue.schedule_call t.events ~time:arrival ~tag arrive arg;
      if verdict.Faults.duplicated then begin
        Metrics.(incr t.metrics Counter.fault_dups);
        (* The ghost copy trails by one wire latency; receivers dedup by
           sequence number, so it only costs a discarded arrival. *)
        Event_queue.schedule_call ~tag t.events
          ~time:(Sim_time.add arrival t.config.net.Netmodel.wire_latency)
          arrive arg
      end
    end

(* Same-node shared-memory handoff (the §IV-B shortcut). *)
let send_local t ~at ~tag arrive arg =
  let at = max at (now t) in
  Metrics.(incr t.metrics Counter.local_messages);
  let arrival = Sim_time.add at t.config.net.Netmodel.shm_latency in
  Event_queue.schedule_call t.events ~time:arrival ~tag arrive arg
