(** Two-tier message-passing channel (§IV-B).

    Tier 1: per-worker per-destination-node buffers flushing at a byte
    threshold or when the worker idles (thread-level combining, TLC).
    Tier 2: per-node combining of concurrent flushes to the same
    destination into one packet (node-level combining, NLC). Same-node
    messages bypass both tiers via shared memory. Each tier toggles
    independently for the Figure 12 ablation.

    When the cluster carries a fault plane ({!Cluster.set_faults}),
    tier-2 packets switch to sequence-numbered reliable delivery:
    receivers dedup and ack every packet, senders retransmit on ack
    timeout with capped exponential backoff and abandon after the
    spec's [max_retries]. Without faults the state is never allocated
    and the send path is unchanged. *)

type config = {
  tlc : bool;
  nlc : bool;
  flush_bytes : int; (** tier-1 flush threshold; 8 KB in the paper *)
  nlc_window : Sim_time.t; (** tier-2 combining window *)
}

(** Full system: TLC + NLC, 8 KB threshold. *)
val default_config : config

(** Every message is a packet (the Figure 12 baseline). *)
val no_batching : config

(** Thread-level combining without node-level combining. *)
val tlc_only : config

(** Messages are ints: the engine's handles into its message slab. They
    must be dense (the channel keeps a lane indexed by handle), and a
    handle must not be sent again before it is delivered. *)
type t

(** [create cluster config ~deliver] — [deliver dst_worker message] runs
    at simulated arrival time for every message. *)
val create : Cluster.t -> config -> deliver:(int -> int -> unit) -> t

val config : t -> config

(** Send one message at logical time [at]; returns the CPU time the
    sending worker spent (append, flush hand-off or syscall). *)
val send :
  t ->
  at:Sim_time.t ->
  src_worker:int ->
  dst_worker:int ->
  kind:Metrics.msg_kind ->
  bytes:int ->
  int ->
  Sim_time.t

(** True exactly while [deliver] runs for a packet whose delivering copy
    was a retransmission; the causal tracer reads this from inside the
    deliver callback to classify the hop as retransmit-recovery time.
    Always false outside deliver callbacks and on fault-free runs. *)
val delivering_retransmitted : t -> bool

(** Flush all tier-1 buffers of a worker (called before it sleeps);
    returns the CPU time spent. *)
val flush_worker : t -> at:Sim_time.t -> worker:int -> Sim_time.t

(** Messages still held in a tier-1 buffer or a tier-2 (NLC) pending
    chain. Zero once every worker has flushed and every window has
    fired; the engine's sanitizer checks it at finish. *)
val held : t -> int
