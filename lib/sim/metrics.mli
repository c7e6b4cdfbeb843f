(** Per-run counters: messages by kind (Figure 11), packets, steps,
    supersteps, tracker load. *)

type msg_kind =
  | Traverser_msg
  | Progress_msg
  | Control_msg
  | Result_msg

val all_kinds : msg_kind list
val kind_name : msg_kind -> string

type t

val create : unit -> t
val reset : t -> unit
val count_message : t -> msg_kind -> int -> unit
val count_local_message : t -> unit
val count_packet : t -> int -> unit
val count_flush : t -> unit
val count_step : t -> unit
val count_edges : t -> int -> unit
val count_spawn : t -> unit
val count_memo_ops : t -> int -> unit
val count_superstep : t -> unit
val count_tracker_update : t -> unit
val count_busy : t -> int -> unit
val count_fault_drop : t -> unit
val count_fault_dup : t -> unit
val count_fault_delay : t -> unit
val count_retransmit : t -> unit
val count_dup_dropped : t -> unit
val count_ack : t -> unit
val count_abandoned : t -> unit
val count_migration : t -> unit
val count_migrated_entries : t -> int -> unit
val count_forwarded : t -> unit
val count_stashed : t -> unit
val count_batch : t -> traversers:int -> unit
val count_coalesced_msg : t -> unit
val count_plan_hit : t -> unit
val count_plan_miss : t -> unit
val count_plan_verification : t -> unit
val count_delegate_merge : t -> unit
val count_delegate_forward : t -> unit

(** Fold plan-cache statistics in bulk; used to mirror
    [Pstm_query.Plan_cache.stats] (which cannot depend on this library)
    into the run report. *)
val add_plan_stats : t -> hits:int -> misses:int -> verifications:int -> unit

(** Mirror the trace ring's overwrite count into the run metrics (set, not
    added: the ring keeps the authoritative count). *)
val set_trace_dropped : t -> int -> unit
val messages : t -> msg_kind -> int
val message_bytes : t -> msg_kind -> int
val total_messages : t -> int
val packets : t -> int
val packet_bytes : t -> int
val local_messages : t -> int
val flushes : t -> int
val steps : t -> int
val edges_scanned : t -> int
val spawned : t -> int
val memo_ops : t -> int
val supersteps : t -> int
val tracker_updates : t -> int
val busy_ns : t -> int

(** Fault-plane counters; all zero on fault-free runs. *)
val fault_drops : t -> int

val fault_dups : t -> int
val fault_delays : t -> int
val retransmits : t -> int
val dup_dropped : t -> int
val acks : t -> int
val abandoned : t -> int

(** Adaptive-repartitioning counters; all zero with static partitioning. *)
val migrations : t -> int

val migrated_entries : t -> int
val forwarded : t -> int
val stashed : t -> int

(** Frontier-batching counters; all zero when batching is off. *)
val batches : t -> int

val batched_traversers : t -> int
val coalesced_msgs : t -> int

(** Traversers-per-batch distribution. *)
val batch_sizes : t -> Histogram.t

(** Compiled-plan-cache counters; all zero when no cache is used. *)
val plan_hits : t -> int

val plan_misses : t -> int
val plan_verifications : t -> int

(** Hierarchical-tracking tier counters; all zero when fanout is unset.
    [delegate_merges] counts subtree weights absorbed at interior
    delegates, [delegate_forwards] the merged messages they ship upward;
    root-tier receipts are {!tracker_updates}. *)
val delegate_merges : t -> int

val delegate_forwards : t -> int

(** Trace events overwritten in the bounded recorder ring; zero when the
    trace is complete (or tracing is off). *)
val trace_dropped : t -> int

(** Whether any migration counter is non-zero. *)
val migration_seen : t -> bool

(** Whether any batching counter is non-zero. *)
val batching_seen : t -> bool

(** Whether any delegate-tier counter is non-zero. *)
val hierarchy_seen : t -> bool

(** Whether any plan-cache counter is non-zero. *)
val plan_cache_seen : t -> bool

(** Whether any fault-plane counter is non-zero. *)
val faults_seen : t -> bool

val pp : Format.formatter -> t -> unit
