(* Run metrics.

   Figure 11 of the paper counts progress-tracking messages against other
   message types with and without weight coalescing, so messages are
   counted by kind at the channel layer. The scalar counters feed the
   performance-breakdown discussions (packets sent, flushes, traverser
   steps executed, superstep count for the BSP engine). Each scalar
   counter is declared once in [Counter], with its JSON key and doc
   string; create, reset, the JSON export and [pp] iterate over the
   declarations. *)

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

module Counter = struct
  type t = { index : int; key : string; doc : string }

  let declared = ref []

  let declare key doc =
    let c = { index = List.length !declared; key; doc } in
    declared := c :: !declared;
    c

  (* Declaration order is the export order. *)
  let local_messages = declare "local_messages" "same-node shared-memory shortcut messages"
  let packets = declare "packets" "network packets sent"
  let packet_bytes = declare "packet_bytes" "bytes carried by network packets"
  let flushes = declare "flushes" "worker buffer flushes"
  let steps = declare "steps" "traverser steps executed"
  let edges_scanned = declare "edges_scanned" "adjacency positions examined"
  let spawned = declare "spawned" "traversers created"
  let memo_ops = declare "memo_ops" "memo reads and writes"
  let supersteps = declare "supersteps" "BSP supersteps run"
  let tracker_updates = declare "tracker_updates" "weight receipts at the progress tracker"
  let busy_ns = declare "busy_ns" "total worker CPU time consumed, in ns"

  (* Fault plane: all zero when no faults are injected. *)
  let fault_drops = declare "fault_drops" "packets lost to injected link faults"
  let fault_dups = declare "fault_dups" "packets duplicated by injected link faults"
  let fault_delays = declare "fault_delays" "delay spikes applied to packets"
  let retransmits = declare "retransmits" "ack timeouts that fired and resent a packet"
  let dup_dropped = declare "dup_dropped" "received packets discarded by the dedup window"
  let acks = declare "acks" "acknowledgement packets sent"
  let abandoned = declare "abandoned" "packets given up after max_retries"

  (* Adaptive repartitioning: all zero when migration is off. *)
  let migrations = declare "migrations" "vertex migrations started"
  let migrated_entries = declare "migrated_entries" "memo entries re-homed"
  let forwarded = declare "forwarded" "traversers forwarded to a vertex's new owner"
  let stashed = declare "stashed" "traversers parked awaiting migration data"

  (* Frontier batching: all zero when batching is off. *)
  let batches = declare "batches" "frontier batches executed"
  let batched_traversers = declare "batched_traversers" "traversers carried by those batches"
  let coalesced_msgs = declare "coalesced_msgs" "remote traverser-batch messages"

  (* Mirrored from the recorder ring. *)
  let trace_dropped = declare "trace_dropped" "trace events overwritten in the bounded ring"

  let all = List.rev !declared
  let count = List.length all
  let key c = c.key
  let doc c = c.doc
end

type t = {
  counters : int array; (* indexed by [Counter.index] *)
  messages : int array; (* by kind *)
  bytes : int array; (* by kind *)
  mutable batch_sizes : Histogram.t; (* traversers-per-batch distribution *)
}

let create () =
  {
    counters = Array.make Counter.count 0;
    messages = Array.make 4 0;
    bytes = Array.make 4 0;
    batch_sizes = Histogram.create ~base:1.0 ();
  }

let reset t =
  Array.fill t.counters 0 Counter.count 0;
  Array.fill t.messages 0 4 0;
  Array.fill t.bytes 0 4 0;
  t.batch_sizes <- Histogram.create ~base:1.0 ()

let get t (c : Counter.t) = t.counters.(c.index)
let set t (c : Counter.t) n = t.counters.(c.index) <- n
let add t (c : Counter.t) n = t.counters.(c.index) <- t.counters.(c.index) + n
let incr t c = add t c 1

let count_message t kind bytes =
  let i = kind_index kind in
  t.messages.(i) <- t.messages.(i) + 1;
  t.bytes.(i) <- t.bytes.(i) + bytes

let count_batch t ~traversers =
  incr t Counter.batches;
  add t Counter.batched_traversers traversers;
  Histogram.add t.batch_sizes (float_of_int traversers)

let messages t kind = t.messages.(kind_index kind)
let message_bytes t kind = t.bytes.(kind_index kind)
let total_messages t = Array.fold_left ( + ) 0 t.messages
let batch_sizes t = t.batch_sizes

let steps t = get t Counter.steps
let edges_scanned t = get t Counter.edges_scanned
let memo_ops t = get t Counter.memo_ops
let busy_ns t = get t Counter.busy_ns
let batches t = get t Counter.batches
let batched_traversers t = get t Counter.batched_traversers
let coalesced_msgs t = get t Counter.coalesced_msgs
let packets t = get t Counter.packets
let packet_bytes t = get t Counter.packet_bytes
let local_messages t = get t Counter.local_messages
let flushes t = get t Counter.flushes
let tracker_updates t = get t Counter.tracker_updates
let delegate_merges (_ : t) = 0
let delegate_forwards (_ : t) = 0

(* Every per-kind message count, then every non-zero counter: a counter
   that never fired (faults, migration, batching, a complete trace ring)
   stays out of the line. *)
let pp ppf t =
  let kinds =
    List.map
      (fun kind -> Fmt.str "%s=%d/%dB" (kind_name kind) (messages t kind) (message_bytes t kind))
      all_kinds
  in
  let counters =
    List.filter_map
      (fun c ->
        let n = get t c in
        if n = 0 then None else Some (Fmt.str "%s=%d" (Counter.key c) n))
      Counter.all
  in
  let batch =
    if Histogram.count t.batch_sizes = 0 then []
    else begin
      let p50, p95, p99 = Histogram.quantiles t.batch_sizes in
      [ Fmt.str "batch_p50/p95/p99=%.0f/%.0f/%.0f" p50 p95 p99 ]
    end
  in
  Fmt.string ppf (String.concat " " (kinds @ counters @ batch))
