(* Run metrics.

   Figure 11 of the paper counts progress-tracking messages against other
   message types with and without weight coalescing, so messages are
   counted by kind at the channel layer. The remaining counters feed the
   performance-breakdown discussions (packets sent, flushes, traverser
   steps executed, superstep count for the BSP engine). *)

type msg_kind =
  | Traverser_msg (* a traverser migrating to a remote partition *)
  | Progress_msg (* finished weight reported to the progress tracker *)
  | Control_msg (* barriers, subquery start/finish, aggregation pulls *)
  | Result_msg (* result rows returned to the query coordinator *)

let all_kinds = [ Traverser_msg; Progress_msg; Control_msg; Result_msg ]

let kind_name = function
  | Traverser_msg -> "traverser"
  | Progress_msg -> "progress"
  | Control_msg -> "control"
  | Result_msg -> "result"

let kind_index = function
  | Traverser_msg -> 0
  | Progress_msg -> 1
  | Control_msg -> 2
  | Result_msg -> 3

type t = {
  messages : int array; (* by kind *)
  bytes : int array; (* by kind *)
  mutable packets : int;
  mutable packet_bytes : int;
  mutable local_messages : int; (* same-node shared-memory shortcut *)
  mutable flushes : int; (* worker buffer flushes *)
  mutable steps : int; (* traverser steps executed *)
  mutable edges_scanned : int; (* adjacency positions examined *)
  mutable spawned : int; (* traversers created *)
  mutable memo_ops : int;
  mutable supersteps : int; (* BSP only *)
  mutable tracker_updates : int; (* weight receipts at the progress tracker *)
  mutable busy_ns : int; (* total worker CPU time consumed *)
  (* Fault plane (all zero when no faults are injected): *)
  mutable fault_drops : int; (* packets lost to injected link faults *)
  mutable fault_dups : int; (* packets duplicated by injected link faults *)
  mutable fault_delays : int; (* delay spikes applied to packets *)
  mutable retransmits : int; (* ack timeouts that fired and resent a packet *)
  mutable dup_dropped : int; (* received packets discarded by the dedup window *)
  mutable acks : int; (* acknowledgement packets sent *)
  mutable abandoned : int; (* packets given up after max_retries *)
  (* Adaptive repartitioning (all zero when migration is off): *)
  mutable migrations : int; (* vertex migrations started *)
  mutable migrated_entries : int; (* memo entries re-homed *)
  mutable forwarded : int; (* traversers forwarded to a vertex's new owner *)
  mutable stashed : int; (* traversers parked awaiting migration data *)
  (* Frontier batching (all zero when batching is off): *)
  mutable batches : int; (* frontier batches executed *)
  mutable batched_traversers : int; (* traversers carried by those batches *)
  mutable coalesced_msgs : int; (* remote traverser-batch messages *)
  mutable batch_sizes : Histogram.t; (* traversers-per-batch distribution *)
  (* Compiled-plan cache (mirrored from Plan_cache by the harness): *)
  mutable plan_hits : int;
  mutable plan_misses : int;
  mutable plan_verifications : int; (* full verifier runs (cold compiles) *)
  (* Hierarchical progress tracking (all zero when fanout is unset): *)
  mutable delegate_merges : int; (* subtree weights absorbed at interior delegates *)
  mutable delegate_forwards : int; (* merged progress messages shipped up the tree *)
  (* Observability self-diagnostics (mirrored from the recorder ring): *)
  mutable trace_dropped : int; (* trace events overwritten in the bounded ring *)
}

let create () =
  {
    messages = Array.make 4 0;
    bytes = Array.make 4 0;
    packets = 0;
    packet_bytes = 0;
    local_messages = 0;
    flushes = 0;
    steps = 0;
    edges_scanned = 0;
    spawned = 0;
    memo_ops = 0;
    supersteps = 0;
    tracker_updates = 0;
    busy_ns = 0;
    fault_drops = 0;
    fault_dups = 0;
    fault_delays = 0;
    retransmits = 0;
    dup_dropped = 0;
    acks = 0;
    abandoned = 0;
    migrations = 0;
    migrated_entries = 0;
    forwarded = 0;
    stashed = 0;
    batches = 0;
    batched_traversers = 0;
    coalesced_msgs = 0;
    batch_sizes = Histogram.create ~base:1.0 ();
    plan_hits = 0;
    plan_misses = 0;
    plan_verifications = 0;
    delegate_merges = 0;
    delegate_forwards = 0;
    trace_dropped = 0;
  }

let reset t =
  Array.fill t.messages 0 4 0;
  Array.fill t.bytes 0 4 0;
  t.packets <- 0;
  t.packet_bytes <- 0;
  t.local_messages <- 0;
  t.flushes <- 0;
  t.steps <- 0;
  t.edges_scanned <- 0;
  t.spawned <- 0;
  t.memo_ops <- 0;
  t.supersteps <- 0;
  t.tracker_updates <- 0;
  t.busy_ns <- 0;
  t.fault_drops <- 0;
  t.fault_dups <- 0;
  t.fault_delays <- 0;
  t.retransmits <- 0;
  t.dup_dropped <- 0;
  t.acks <- 0;
  t.abandoned <- 0;
  t.migrations <- 0;
  t.migrated_entries <- 0;
  t.forwarded <- 0;
  t.stashed <- 0;
  t.batches <- 0;
  t.batched_traversers <- 0;
  t.coalesced_msgs <- 0;
  t.batch_sizes <- Histogram.create ~base:1.0 ();
  t.plan_hits <- 0;
  t.plan_misses <- 0;
  t.plan_verifications <- 0;
  t.delegate_merges <- 0;
  t.delegate_forwards <- 0;
  t.trace_dropped <- 0

let count_message t kind bytes =
  let i = kind_index kind in
  t.messages.(i) <- t.messages.(i) + 1;
  t.bytes.(i) <- t.bytes.(i) + bytes

let count_local_message t = t.local_messages <- t.local_messages + 1

let count_packet t bytes =
  t.packets <- t.packets + 1;
  t.packet_bytes <- t.packet_bytes + bytes

let count_flush t = t.flushes <- t.flushes + 1
let count_step t = t.steps <- t.steps + 1
let count_edges t n = t.edges_scanned <- t.edges_scanned + n
let count_spawn t = t.spawned <- t.spawned + 1
let count_memo_ops t n = t.memo_ops <- t.memo_ops + n
let count_superstep t = t.supersteps <- t.supersteps + 1
let count_tracker_update t = t.tracker_updates <- t.tracker_updates + 1
let count_busy t ns = t.busy_ns <- t.busy_ns + ns
let count_fault_drop t = t.fault_drops <- t.fault_drops + 1
let count_fault_dup t = t.fault_dups <- t.fault_dups + 1
let count_fault_delay t = t.fault_delays <- t.fault_delays + 1
let count_retransmit t = t.retransmits <- t.retransmits + 1
let count_dup_dropped t = t.dup_dropped <- t.dup_dropped + 1
let count_ack t = t.acks <- t.acks + 1
let count_abandoned t = t.abandoned <- t.abandoned + 1
let count_migration t = t.migrations <- t.migrations + 1
let count_migrated_entries t n = t.migrated_entries <- t.migrated_entries + n
let count_forwarded t = t.forwarded <- t.forwarded + 1
let count_stashed t = t.stashed <- t.stashed + 1

let count_batch t ~traversers =
  t.batches <- t.batches + 1;
  t.batched_traversers <- t.batched_traversers + traversers;
  Histogram.add t.batch_sizes (float_of_int traversers)

let count_coalesced_msg t = t.coalesced_msgs <- t.coalesced_msgs + 1
let count_plan_hit t = t.plan_hits <- t.plan_hits + 1
let count_plan_miss t = t.plan_misses <- t.plan_misses + 1
let count_plan_verification t = t.plan_verifications <- t.plan_verifications + 1
let count_delegate_merge t = t.delegate_merges <- t.delegate_merges + 1
let count_delegate_forward t = t.delegate_forwards <- t.delegate_forwards + 1

let set_trace_dropped t n = t.trace_dropped <- n

let add_plan_stats t ~hits ~misses ~verifications =
  t.plan_hits <- t.plan_hits + hits;
  t.plan_misses <- t.plan_misses + misses;
  t.plan_verifications <- t.plan_verifications + verifications

let messages t kind = t.messages.(kind_index kind)
let message_bytes t kind = t.bytes.(kind_index kind)
let total_messages t = Array.fold_left ( + ) 0 t.messages
let packets t = t.packets
let packet_bytes t = t.packet_bytes
let local_messages t = t.local_messages
let flushes t = t.flushes
let steps t = t.steps
let edges_scanned t = t.edges_scanned
let spawned t = t.spawned
let memo_ops t = t.memo_ops
let supersteps t = t.supersteps
let tracker_updates t = t.tracker_updates
let busy_ns t = t.busy_ns
let fault_drops t = t.fault_drops
let fault_dups t = t.fault_dups
let fault_delays t = t.fault_delays
let retransmits t = t.retransmits
let dup_dropped t = t.dup_dropped
let acks t = t.acks
let abandoned t = t.abandoned
let migrations t = t.migrations
let migrated_entries t = t.migrated_entries
let forwarded t = t.forwarded
let stashed t = t.stashed

let batches t = t.batches
let batched_traversers t = t.batched_traversers
let coalesced_msgs t = t.coalesced_msgs
let batch_sizes t = t.batch_sizes
let plan_hits t = t.plan_hits
let plan_misses t = t.plan_misses
let plan_verifications t = t.plan_verifications
let delegate_merges t = t.delegate_merges
let delegate_forwards t = t.delegate_forwards
let trace_dropped t = t.trace_dropped

let migration_seen t = t.migrations + t.migrated_entries + t.forwarded + t.stashed > 0

let batching_seen t = t.batches + t.coalesced_msgs > 0
let hierarchy_seen t = t.delegate_merges + t.delegate_forwards > 0
let plan_cache_seen t = t.plan_hits + t.plan_misses > 0

let faults_seen t =
  t.fault_drops + t.fault_dups + t.fault_delays + t.retransmits + t.dup_dropped + t.acks
  + t.abandoned
  > 0

let pp ppf t =
  Fmt.pf ppf "steps=%d spawned=%d packets=%d local=%d" t.steps t.spawned t.packets
    t.local_messages;
  List.iter
    (fun kind ->
      Fmt.pf ppf " %s=%d/%dB" (kind_name kind) (messages t kind) (message_bytes t kind))
    all_kinds;
  (* Fault counters only appear when the fault plane was active, so
     fault-free output is unchanged. *)
  if faults_seen t then
    Fmt.pf ppf " drops=%d dups=%d delays=%d retx=%d dedup=%d acks=%d abandoned=%d" t.fault_drops
      t.fault_dups t.fault_delays t.retransmits t.dup_dropped t.acks t.abandoned;
  (* Likewise, migration counters only appear once a vertex has moved, so
     static-partition output is unchanged. *)
  if migration_seen t then
    Fmt.pf ppf " migrations=%d rehomed=%d forwarded=%d stashed=%d" t.migrations
      t.migrated_entries t.forwarded t.stashed;
  (* Batch counters only appear when frontier batching ran, so the
     unbatched output is unchanged. *)
  if batching_seen t then begin
    Fmt.pf ppf " batches=%d batched_travs=%d coalesced=%d" t.batches t.batched_traversers
      t.coalesced_msgs;
    if Histogram.count t.batch_sizes > 0 then begin
      let p50, p95, p99 = Histogram.quantiles t.batch_sizes in
      Fmt.pf ppf " batch_p50/p95/p99=%.0f/%.0f/%.0f" p50 p95 p99
    end
  end;
  if plan_cache_seen t then
    Fmt.pf ppf " plan_hits=%d plan_misses=%d verified=%d" t.plan_hits t.plan_misses
      t.plan_verifications;
  (* Delegate-tier counters only appear under hierarchical tracking, so
     flat-tracking output is unchanged. *)
  if hierarchy_seen t then
    Fmt.pf ppf " delegate_merges=%d delegate_fwds=%d root_receipts=%d" t.delegate_merges
      t.delegate_forwards t.tracker_updates;
  (* A truncated trace ring must be visible wherever metrics are read, so
     a partial trace is never mistaken for a complete one. *)
  if t.trace_dropped > 0 then Fmt.pf ppf " trace_dropped=%d" t.trace_dropped
