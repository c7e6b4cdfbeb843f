(* The async engine's messages between workers, shared by the engine and
   the seams that build them ({!Progress_tier}, {!Migration}).

   A message in flight is an int handle into the engine's one message
   slab: five parallel {!Chunks} lanes indexed by handle — one int lane
   packing the message's query (-1 for migration messages) with its
   causal context [cz]; the three traverser lanes of a one-traverser
   message (vertex and step packed into one int, weight, register file);
   and its payload — plus a free list threaded through the first lane.
   Channel batches, the workers' task rings, same-node hand-offs and the
   migration stash all carry handles, so a traverser travels as lane
   words, with neither a message box nor a record around it. A slot is
   released exactly once, by the worker that consumes the message; under
   the sanitizer an uncut run must end with every slot free.

   [cz] is the id of the {!Pstm_obs.Causal} DAG node that produced the
   message (-1 when causal tracing is off). Delivery rewrites it, in its
   lane, to the arrival node, so the consumer's edge covers only the
   queue wait, not the network hop again. It is pure metadata: [bytes]
   ignores it, so the simulated byte counts and costs are the same
   whether tracing is on or off. Payloads themselves are immutable, so
   one value can back many messages (a cleanup broadcast, a flush to
   every responder). *)

type t =
  | P_trav (* one traverser, in the slot's traverser lanes *)
  | P_trav_batch of { vsteps : int array; weights : Weight.t array; regs : Value.t array array }
    (* Frontier batching ([Engine.Common.batched]): one coalesced message
       per (destination, kind) bucket instead of one packet per traverser,
       its elements as lane arrays ([vsteps] packs vertex and step like
       the slab's lane). Each traverser still carries its own step and
       weight, so reliable delivery (ack / retransmit / dedup) treats the
       batch like any other payload and conservation is untouched. *)
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

(* A slot's id word packs two fields into one int lane: the message's
   qid in the high 31 bits and, in the low 32, [cz + 1] for a live slot
   or the next free slot + 1 for a free one (0 ends the free list).
   Qids range over [-1, 2^30) (-1 for migration messages); [free_qid]
   marks a free slot, so a double release is refused. Causal ids range
   over [-1, 2^32 - 1) and handles over [0, 2^32 - 1). *)
let low = 0xFFFF_FFFF
let free_qid = -1 lsl 30
let[@inline] id_word qid low32 = (qid lsl 32) lor low32

(* A traverser's vertex and step share one int word: the vertex in the
   high 39 bits and the step in the low 24. Vertices range over
   [0, 2^38) and steps over [0, 2^24). *)
let step_bits = 24
let step_mask = (1 lsl step_bits) - 1
let[@inline] vstep ~vertex ~step = (vertex lsl step_bits) lor step
let[@inline] vstep_vertex w = w asr step_bits
let[@inline] vstep_step w = w land step_mask

type slab = {
  ids : int Chunks.t;
  vsteps : int Chunks.t; (* the traverser lanes, meaningful when the payload is [P_trav] *)
  weights : Weight.t Chunks.t;
  regs : Value.t array Chunks.t; (* [||] unless the payload is [P_trav] *)
  payloads : t Chunks.t;
  mutable free : int; (* the first free slot, or -1 *)
  mutable in_use : int;
}

let slab () =
  { ids = Chunks.create (); vsteps = Chunks.create (); weights = Chunks.create ();
    regs = Chunks.create (); payloads = Chunks.create (); free = -1; in_use = 0 }

(* Add one chunk to every lane ({!Chunks}: a flooding run holds over a
   million messages at once, and doubling flat lanes would keep two
   copies alive while they grow), its slots linked onto the (empty) free
   list lowest handle first. *)
let grow s =
  let first = Chunks.capacity s.ids in
  Chunks.grow s.ids (id_word free_qid 0);
  for h = first to Chunks.capacity s.ids - 2 do
    Chunks.set s.ids h (id_word free_qid (h + 2))
  done;
  Chunks.grow s.vsteps 0;
  Chunks.grow s.weights Weight.zero;
  Chunks.grow s.regs [||];
  Chunks.grow s.payloads P_cleanup;
  s.free <- first

(* A message of any kind; returns its handle. *)
let msg s ~qid ~cz payload =
  if s.free < 0 then grow s;
  let h = s.free in
  s.free <- (Chunks.get s.ids h land low) - 1;
  s.in_use <- s.in_use + 1;
  Chunks.set s.ids h (id_word qid (cz + 1));
  Chunks.set s.payloads h payload;
  h

(* A one-traverser message. *)
let trav s ~qid ~cz ~vertex ~step ~weight ~regs =
  let h = msg s ~qid ~cz P_trav in
  Chunks.set s.vsteps h (vstep ~vertex ~step);
  Chunks.set s.weights h weight;
  Chunks.set s.regs h regs;
  h

let qid s h = Chunks.get s.ids h asr 32
let cz s h = (Chunks.get s.ids h land low) - 1
let set_cz s h cz = Chunks.set s.ids h (Chunks.get s.ids h land lnot low lor (cz + 1))
let vertex s h = vstep_vertex (Chunks.get s.vsteps h)
let step s h = vstep_step (Chunks.get s.vsteps h)
let weight s h = Chunks.get s.weights h
let regs s h = Chunks.get s.regs h
let payload s h = Chunks.get s.payloads h

let release s h =
  if qid s h = free_qid then invalid_arg "Payload.release: slot already free";
  Chunks.set s.ids h (id_word free_qid (s.free + 1));
  Chunks.set s.regs h [||];
  Chunks.set s.payloads h P_cleanup;
  s.free <- h;
  s.in_use <- s.in_use - 1

(* Slots acquired and not yet released. *)
let in_use s = s.in_use

(* The engine's send: a same-worker push or a channel message of the
   handle; returns the sender's CPU cost. *)
type send = at:Sim_time.t -> src:int -> dst:int -> kind:Metrics.msg_kind -> int -> Sim_time.t

let bytes s h =
  match payload s h with
  | P_trav -> 8 + Traverser.wire_bytes (regs s h)
  | P_trav_batch { regs; _ } ->
    (* One header amortized over the batch; elements pay only their own
       serialized size, not a per-message frame. *)
    Array.fold_left (fun acc r -> acc + Traverser.wire_bytes r) 16 regs
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
