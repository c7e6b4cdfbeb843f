(* The async engine's messages between workers, shared by the engine and
   the seams that build them ({!Progress_tier}, {!Migration}).

   A message in flight is an int handle into the engine's one message
   slab: parallel lanes indexed by handle — the message's query (-1 for
   migration messages), its causal context [cz], the traverser of a
   one-traverser message, and its payload — plus a free list. Channel
   batches, the workers' task rings, same-node hand-offs and the
   migration stash all carry handles, so a traverser travels without a
   message box around it. A slot is released exactly once, by the worker
   that consumes the message; under the sanitizer an uncut run must end
   with every slot free.

   [cz] is the id of the {!Pstm_obs.Causal} DAG node that produced the
   message (-1 when causal tracing is off). Delivery rewrites it, in its
   lane, to the arrival node, so the consumer's edge covers only the
   queue wait, not the network hop again. It is pure metadata: [bytes]
   ignores it, so the simulated byte counts and costs are the same
   whether tracing is on or off. Payloads themselves are immutable, so
   one value can back many messages (a cleanup broadcast, a flush to
   every responder). *)

type t =
  | P_trav (* one traverser, in the slot's traverser lane *)
  | P_trav_batch of Traverser.t array
    (* Frontier batching ([Engine.Common.batched]): one coalesced message
       per (destination, kind) bucket instead of one packet per traverser.
       Each traverser still carries its own step and weight, so reliable
       delivery (ack / retransmit / dedup) treats the batch like any
       other payload and conservation is untouched. *)
  | P_progress of { phase : int; weight : Weight.t }
  | P_agg_flush of { agg_step : int }
  | P_agg_partial of { agg_step : int; partial : Aggregate.t option }
  | P_cleanup
  | P_setup (* dataflow flavors: instantiate operators *)
  | P_setup_ack
  (* Vertex migration (adaptive repartitioning). The order goes to the
     old owner, which extracts the vertex's memo entries and ships them
     to the new owner as one costed data message. *)
  | P_migrate of { vertex : int; dst : int }
  | P_migrate_data of { vertex : int; entries : (int * int * Memo.entry) list }

let no_trav = Traverser.make ~vertex:0 ~step:0 ~weight:Weight.zero ~n_registers:0

(* The qid lane of a free slot; its [cz] lane links the free list. *)
let free_qid = min_int

type slab = {
  mutable qids : int array array;
  mutable czs : int array array;
  mutable travs : Traverser.t array array; (* [no_trav] unless the payload is [P_trav] *)
  mutable payloads : t array array;
  mutable free : int; (* the first free slot, or -1 *)
  mutable in_use : int;
}

let slab () = { qids = [||]; czs = [||]; travs = [||]; payloads = [||]; free = -1; in_use = 0 }

(* Add one chunk to every lane ({!Chunks}: a flooding run holds over a
   million messages at once, and doubling flat lanes would keep two
   copies alive while they grow), its slots linked onto the (empty) free
   list lowest handle first. *)
let grow s =
  let first = Chunks.capacity s.qids in
  s.qids <- Chunks.add s.qids free_qid;
  s.czs <- Chunks.add s.czs (-1);
  let links = s.czs.(first lsr Chunks.bits) in
  for i = 0 to Chunks.mask - 1 do
    links.(i) <- first + i + 1
  done;
  s.travs <- Chunks.add s.travs no_trav;
  s.payloads <- Chunks.add s.payloads P_cleanup;
  s.free <- first

let acquire s ~qid ~cz payload trav =
  if s.free < 0 then grow s;
  let h = s.free in
  let c = h lsr Chunks.bits and i = h land Chunks.mask in
  let czs = s.czs.(c) in
  s.free <- czs.(i);
  s.in_use <- s.in_use + 1;
  s.qids.(c).(i) <- qid;
  czs.(i) <- cz;
  s.payloads.(c).(i) <- payload;
  s.travs.(c).(i) <- trav;
  h

(* A one-traverser message / any other message; returns its handle. *)
let trav s ~qid ~cz trav = acquire s ~qid ~cz P_trav trav
let msg s ~qid ~cz payload = acquire s ~qid ~cz payload no_trav

let qid s h = s.qids.(h lsr Chunks.bits).(h land Chunks.mask)
let cz s h = s.czs.(h lsr Chunks.bits).(h land Chunks.mask)
let set_cz s h cz = s.czs.(h lsr Chunks.bits).(h land Chunks.mask) <- cz
let traverser s h = s.travs.(h lsr Chunks.bits).(h land Chunks.mask)
let payload s h = s.payloads.(h lsr Chunks.bits).(h land Chunks.mask)

let release s h =
  let c = h lsr Chunks.bits and i = h land Chunks.mask in
  let qids = s.qids.(c) in
  if qids.(i) = free_qid then invalid_arg "Payload.release: slot already free";
  qids.(i) <- free_qid;
  s.travs.(c).(i) <- no_trav;
  s.payloads.(c).(i) <- P_cleanup;
  s.czs.(c).(i) <- s.free;
  s.free <- h;
  s.in_use <- s.in_use - 1

(* Slots acquired and not yet released. *)
let in_use s = s.in_use

(* The engine's send: a same-worker push or a channel message of the
   handle; returns the sender's CPU cost. *)
type send = at:Sim_time.t -> src:int -> dst:int -> kind:Metrics.msg_kind -> int -> Sim_time.t

let bytes s h =
  match payload s h with
  | P_trav -> 8 + Traverser.bytes (traverser s h)
  | P_trav_batch travs ->
    (* One header amortized over the batch; elements pay only their own
       serialized size, not a per-message frame. *)
    Array.fold_left (fun acc t -> acc + Traverser.bytes t) 16 travs
  | P_progress _ -> 8 + Weight.bytes + 8
  | P_agg_flush _ -> 16
  | P_agg_partial { partial; _ } ->
    16 + (match partial with None -> 0 | Some p -> Aggregate.bytes p)
  | P_cleanup -> 8
  | P_setup | P_setup_ack -> 16
  | P_migrate _ -> 16
  | P_migrate_data { entries; _ } ->
    List.fold_left (fun acc (_, _, e) -> acc + 16 + Memo.entry_bytes e) 16 entries

(* Arrival interception: when a message lands on a worker's queue,
   register an arrival node at the delivery instant [ts] and rewrite the
   message's [cz] to it, so the consumer's edge covers only the queue
   wait from here on. [hop] is Network, or Retransmit when the reliable
   channel is delivering a retransmitted copy — that edge *is* the
   recovery stall. Cleanups are sent without a context (-1). *)
let arrive s causal ~ts hop h =
  let src = cz s h in
  if src >= 0 then begin
    let name =
      match payload s h with
      | P_trav -> "arrive"
      | P_trav_batch _ -> "arrive-batch"
      | P_progress _ -> "arrive-progress"
      | P_agg_flush _ -> "arrive-agg"
      | P_agg_partial _ -> "arrive-partial"
      | P_setup -> "arrive-setup"
      | P_setup_ack -> "arrive-ack"
      | P_migrate _ -> "arrive-migrate"
      | P_migrate_data _ -> "arrive-mdata"
      | P_cleanup -> "arrive-cleanup"
    in
    set_cz s h (Pstm_obs.Causal.hop causal ~qid:(qid s h) ~name ~ts ~src hop)
  end
