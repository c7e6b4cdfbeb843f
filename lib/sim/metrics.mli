(** Per-run counters: messages by kind (Figure 11), a registry of scalar
    counters (packets, steps, supersteps, tracker load, fault, migration
    and batching counts), and the traversers-per-batch histogram. *)

type msg_kind =
  | Traverser_msg
  | Progress_msg
  | Control_msg
  | Result_msg

val all_kinds : msg_kind list
val kind_name : msg_kind -> string

(** The scalar counters. Each is declared once, with its JSON key and a
    doc string; adding a declaration adds the counter to {!create},
    {!reset}, {!pp} and the JSON export. *)
module Counter : sig
  type t

  val local_messages : t
  val packets : t
  val packet_bytes : t
  val flushes : t
  val steps : t
  val edges_scanned : t
  val spawned : t
  val memo_ops : t
  val supersteps : t
  val tracker_updates : t
  val busy_ns : t

  (** Fault plane; all zero on fault-free runs. *)
  val fault_drops : t

  val fault_dups : t
  val fault_delays : t
  val retransmits : t
  val dup_dropped : t
  val acks : t
  val abandoned : t

  (** Adaptive repartitioning; all zero with static partitioning. *)
  val migrations : t

  val migrated_entries : t
  val forwarded : t
  val stashed : t

  (** Frontier batching; all zero when batching is off. *)
  val batches : t

  val batched_traversers : t
  val coalesced_msgs : t

  (** Trace events overwritten in the bounded recorder ring; zero when
      the trace is complete (or tracing is off). *)
  val trace_dropped : t

  (** Every counter, in declaration (export) order. *)
  val all : t list

  val key : t -> string
  val doc : t -> string
end

type t

val create : unit -> t
val reset : t -> unit
val get : t -> Counter.t -> int
val add : t -> Counter.t -> int -> unit
val incr : t -> Counter.t -> unit

(** Overwrite a counter; used to mirror a count another component keeps
    (the trace ring's overwrite count). *)
val set : t -> Counter.t -> int -> unit

val count_message : t -> msg_kind -> int -> unit

(** One frontier batch: bumps [batches] and [batched_traversers] and
    feeds the {!batch_sizes} histogram. *)
val count_batch : t -> traversers:int -> unit

val messages : t -> msg_kind -> int
val message_bytes : t -> msg_kind -> int
val total_messages : t -> int

(** Traversers-per-batch distribution. *)
val batch_sizes : t -> Histogram.t

(** Aliases of [get] for the counters bench/perf reads, and two stubs
    that are always 0 (progress tracking is flat, so there is no delegate
    tier). They go with bench/perf's next change. *)
val steps : t -> int

val edges_scanned : t -> int
val memo_ops : t -> int
val busy_ns : t -> int
val batches : t -> int
val batched_traversers : t -> int
val coalesced_msgs : t -> int
val packets : t -> int
val packet_bytes : t -> int
val local_messages : t -> int
val flushes : t -> int
val tracker_updates : t -> int
val delegate_merges : t -> int
val delegate_forwards : t -> int

(** Every per-kind message count, then every non-zero counter and, when
    batching ran, the batch-size quantiles. *)
val pp : Format.formatter -> t -> unit
