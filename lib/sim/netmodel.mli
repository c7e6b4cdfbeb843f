(** Network cost model: bandwidth, latency and per-packet (IOPS) costs. *)

type t = {
  bandwidth_gbps : float;
  wire_latency : Sim_time.t;
  per_packet : Sim_time.t;
  packet_header_bytes : int;
  shm_latency : Sim_time.t;
}

(** 200 Gbps, ~2us wire latency — the paper's testbed network. *)
val default : t

val with_bandwidth : t -> float -> t

(** Wire time of a payload of [bytes] (header included). *)
val wire_time : t -> bytes:int -> Sim_time.t

(** Total NIC occupancy of one packet: per-packet cost + wire time. *)
val nic_occupancy : t -> bytes:int -> Sim_time.t
