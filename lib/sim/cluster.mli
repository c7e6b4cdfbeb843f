(** Simulated cluster: topology, CPU cost table and per-node NIC resources. *)

type costs = {
  step_dispatch : Sim_time.t;
  per_edge : Sim_time.t;
  per_property : Sim_time.t;
  memo_op : Sim_time.t;
  progress_add : Sim_time.t;
  progress_coalesce : Sim_time.t;
  buffer_append : Sim_time.t;
  flush_handoff : Sim_time.t;
  direct_send : Sim_time.t;
  latch : Sim_time.t;
  barrier : Sim_time.t;
  operator_sched : Sim_time.t;
}

val default_costs : costs

type config = {
  n_nodes : int;
  workers_per_node : int;
  net : Netmodel.t;
  costs : costs;
}

(** The paper's testbed shape: 8 nodes, 16 workers each, 200 Gbps. *)
val default_config : config

type packet_info = {
  src_node : int;
  dst_node : int;
  bytes : int;
  nic_start : Sim_time.t;  (** when the packet began serializing on the NIC *)
  arrival : Sim_time.t;
}

(** One step of the reliable-channel protocol, as observed on a directed
    link. Emitted through {!set_protocol_hook} by {!Channel} whenever the
    fault plane (and hence sequence-numbered delivery) is active. *)
type pkt_event =
  | Pkt_send  (** sequence number assigned, first transmission *)
  | Pkt_retransmit  (** ack timeout expired, packet sent again *)
  | Pkt_deliver  (** receiver accepted the packet as fresh *)
  | Pkt_dup  (** receiver discarded a duplicate *)
  | Pkt_ack  (** ack arrived back at the sender *)
  | Pkt_abandon  (** retry budget exhausted, sender gave up *)

type protocol_event = {
  pkt_ev : pkt_event;
  ev_src : int;  (** source node of the data packet *)
  ev_dst : int;  (** destination node of the data packet *)
  ev_seq : int;  (** per-link sequence number *)
}

type t

val create : config -> t

(** Observability hook invoked for every cross-node packet as it is
    scheduled; [None] (the default) disables it. *)
val set_packet_hook : t -> (packet_info -> unit) option -> unit

(** Conformance hook: the analysis layer's compiled protocol monitors
    subscribe here under [~check:true]; [None] (the default) costs
    nothing. *)
val set_protocol_hook : t -> (protocol_event -> unit) option -> unit

(** Invoke the protocol hook, if any. Used by {!Channel}. *)
val emit_protocol : t -> pkt_event -> src:int -> dst:int -> seq:int -> unit

(** Install a seeded protocol mutant ([None] = intact protocols). Only
    checker-validation paths ever set this. *)
val set_mutation : t -> Mutation.t option -> unit

val mutation : t -> Mutation.t option

(** Dependence tags for {!Event_queue} choosers. Each directed link and
    each worker gets its own class; the ranges are disjoint and never 0
    (the untagged class). *)
val link_tag : t -> src_node:int -> dst_node:int -> int

val worker_tag : t -> int -> int

(** Attach a fault-injection plane; [None] (the default) is the perfect
    network and leaves every code path byte-identical to a fault-free
    build. With a plane attached, {!send_packet} consults it for
    drop/duplicate/delay verdicts and defers arrivals at paused nodes;
    {!Channel} switches to sequence-numbered reliable delivery. *)
val set_faults : t -> Faults.t option -> unit

val faults : t -> Faults.t option
val config : t -> config
val events : t -> Event_queue.t
val metrics : t -> Metrics.t
val costs : t -> costs
val net : t -> Netmodel.t
val n_nodes : t -> int
val n_workers : t -> int
val node_of_worker : t -> int -> int
val same_node : t -> int -> int -> bool
val now : t -> Sim_time.t
val workers_of_node : t -> int -> int array

(** [send_packet t ~at ~src_node ~dst_node ~bytes arrive arg] serializes
    a packet through the source NIC; [arrive arg] runs at the destination
    at the computed arrival time (twice if the fault plane duplicates
    it, never if it drops it). A prebuilt [arrive] makes the send
    allocation-free ({!Event_queue.schedule_call}). *)
val send_packet :
  t -> at:Sim_time.t -> src_node:int -> dst_node:int -> bytes:int -> (int -> unit) -> int -> unit

(** Same-node shared-memory handoff of [arrive arg]. [tag] labels the
    arrival's dependence class for choosers. *)
val send_local : t -> at:Sim_time.t -> tag:int -> (int -> unit) -> int -> unit
