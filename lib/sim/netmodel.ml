(* Network cost model.

   Packets leaving a node serialize through its NIC: each occupies the NIC
   for a per-packet overhead (this is what caps packet rate — the "message
   rate of the networking stack" the paper blames for asynchronous systems'
   small-message problem) plus the wire time of its bytes, then arrives
   after the propagation latency. Same-node transfers bypass the NIC via
   shared memory. The bandwidth and latency knobs drive the Figure 13
   hardware sweep. *)

type t = {
  bandwidth_gbps : float; (* per-node NIC line rate *)
  wire_latency : Sim_time.t; (* propagation + switch traversal *)
  per_packet : Sim_time.t; (* NIC + kernel cost per packet, caps IOPS *)
  packet_header_bytes : int; (* framing added to every packet *)
  shm_latency : Sim_time.t; (* same-node shared-memory handoff *)
}

(* Defaults approximate the paper's testbed: 200 Gbps network, ~1.5us
   end-to-end latency, ~600K packets/s/node through the kernel TCP stack. *)
let default =
  {
    bandwidth_gbps = 200.0;
    wire_latency = Sim_time.us 2;
    per_packet = Sim_time.ns 1_600;
    packet_header_bytes = 64;
    shm_latency = Sim_time.ns 300;
  }

let with_bandwidth t gbps =
  if gbps <= 0.0 then invalid_arg "Netmodel.with_bandwidth";
  { t with bandwidth_gbps = gbps }

(* Time the payload occupies the wire: [Sim_time.of_float_ns], written
   out so the quotient is never boxed (this runs once per packet). *)
let wire_time t ~bytes =
  let bits = float_of_int ((bytes + t.packet_header_bytes) * 8) in
  int_of_float (Float.round (bits /. t.bandwidth_gbps))

(* Total NIC occupancy of one packet. *)
let nic_occupancy t ~bytes = Sim_time.add t.per_packet (wire_time t ~bytes)
