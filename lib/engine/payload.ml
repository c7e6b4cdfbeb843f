(* The async engine's messages between workers, shared by the engine and
   the seams that build them ({!Progress_tier}, {!Migration}).

   A message in flight is an int handle into the engine's one message
   slab: five parallel {!Chunks} lanes indexed by handle — one int lane
   packing the message's query (-1 for migration messages) with its
   causal context [cz]; the three traverser lanes of a one-traverser
   message (vertex and step packed into one int, weight, register file);
   and its payload — plus a free list threaded through the first lane.
   A progress message keeps its phase and weight in the traverser lanes,
   and a coalesced batch its batch id, the elements sitting in the
   slab's batch table (pooled lane arrays, see [batches]). Channel
   batches, the workers' task rings, same-node hand-offs and the
   migration stash all carry handles, so a traverser travels as lane
   words, with neither a message box nor a record around it. A slot is
   released exactly once, by the worker that consumes the message, and
   a batch id likewise once its elements are read; under the sanitizer
   an uncut run must end with every slot and every batch free.

   [cz] is the id of the {!Pstm_obs.Causal} DAG node that produced the
   message (-1 when causal tracing is off). Delivery rewrites it, in its
   lane, to the arrival node, so the consumer's edge covers only the
   queue wait, not the network hop again. It is pure metadata: [bytes]
   ignores it, so the simulated byte counts and costs are the same
   whether tracing is on or off. Payloads themselves are immutable, so
   one value can back many messages (a cleanup broadcast, a flush to
   every responder); the per-message ones ([P_trav], [P_trav_batch],
   [P_progress]) are constant constructors, so building them allocates
   nothing. *)

type t =
  | P_trav (* one traverser, in the slot's traverser lanes *)
  | P_trav_batch
    (* Frontier batching ([Engine.Common.batched]): one coalesced message
       per (destination, kind) bucket instead of one packet per traverser.
       The slot's [vsteps] lane holds the id of its batch in the slab's
       batch table, whose lanes hold the elements. Each traverser still
       carries its own step and weight, so reliable delivery (ack /
       retransmit / dedup) treats the batch like any other payload and
       conservation is untouched. *)
  | P_progress (* a phase's finished weight: the phase in [vsteps], the weight in [weights] *)
  | P_agg_flush of { agg_step : int }
  | P_agg_partial of Aggregate.t
    (* A responder's partial, read by the coordinator's combine and never
       changed by it: the responder's memo keeps it until the query's
       cleanup. *)
  | P_agg_empty (* a responder that holds no partial *)
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

(* The batch table: each [P_trav_batch]'s elements as three lane arrays
   ([vsteps] packed like the slab's lane, weights, register files) and a
   length, indexed by batch id through four {!Chunks} lanes. The table
   owns the arrays: an id keeps its arrays when it is released and waits
   on the free list of their size class (capacity [4 lsl c] for class
   [c]), threaded through the length lane. [batch_open] takes an id of
   class 0, [batch_push] moves a full batch's elements to arrays of the
   next class (the old ones go back to their class), and the consumer
   releases the id once it has read the elements. So a steady state of
   batches allocates nothing, and the table never holds more arrays than
   were in flight at once. A released batch drops its register files
   and reads as empty; a double release is refused. *)
type batches = {
  b_vsteps : int array Chunks.t;
  b_weights : Weight.t array Chunks.t;
  b_regs : Value.t array array Chunks.t;
  b_len : int Chunks.t; (* a live batch's length; [-2 - next free id] for a free one *)
  free_heads : int array; (* each class's first free id, or -1 *)
  mutable n_ids : int;
  mutable live : int;
}

let class_bits = 2

let batches () =
  { b_vsteps = Chunks.create (); b_weights = Chunks.create (); b_regs = Chunks.create ();
    b_len = Chunks.create (); free_heads = Array.make (Sys.int_size - class_bits) (-1); n_ids = 0;
    live = 0 }

let capacity_class capacity =
  let c = ref 0 in
  while 1 lsl (class_bits + !c) < capacity do
    incr c
  done;
  !c

(* A free id of class [c]: the head of the class's free list, or a new
   one with fresh arrays. *)
let take_id b c =
  let id = b.free_heads.(c) in
  if id >= 0 then begin
    b.free_heads.(c) <- -2 - Chunks.get b.b_len id;
    id
  end
  else begin
    let id = b.n_ids in
    if id = Chunks.capacity b.b_len then begin
      Chunks.grow b.b_vsteps [||];
      Chunks.grow b.b_weights [||];
      Chunks.grow b.b_regs [||];
      Chunks.grow b.b_len (-1)
    end;
    let capacity = 1 lsl (class_bits + c) in
    Chunks.set b.b_vsteps id (Array.make capacity 0);
    Chunks.set b.b_weights id (Array.make capacity Weight.zero);
    Chunks.set b.b_regs id (Array.make capacity [||]);
    b.n_ids <- id + 1;
    id
  end

(* Put [id] on its class's free list; its first [len] register files
   are dropped. *)
let park b id len =
  Array.fill (Chunks.get b.b_regs id) 0 len [||];
  let c = capacity_class (Array.length (Chunks.get b.b_vsteps id)) in
  Chunks.set b.b_len id (-2 - b.free_heads.(c));
  b.free_heads.(c) <- id

(* Exchange two ids' arrays in one lane. *)
let swap lane i j =
  let a = Chunks.get lane i in
  Chunks.set lane i (Chunks.get lane j);
  Chunks.set lane j a

type slab = {
  ids : int Chunks.t;
  vsteps : int Chunks.t;
    (* the traverser lanes, meaningful when the payload is [P_trav]; [vsteps]
       also holds a batch's id or a progress message's phase, and
       [weights] a progress message's weight *)
  weights : Weight.t Chunks.t;
  regs : Value.t array Chunks.t; (* [||] unless the payload is [P_trav] *)
  payloads : t Chunks.t;
  mutable free : int; (* the first free slot, or -1 *)
  mutable in_use : int;
  batches : batches;
}

let slab () =
  { ids = Chunks.create (); vsteps = Chunks.create (); weights = Chunks.create ();
    regs = Chunks.create (); payloads = Chunks.create (); free = -1; in_use = 0;
    batches = batches () }

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

(* A phase's finished weight, for the query's tracker. *)
let progress s ~qid ~cz ~phase ~weight =
  let h = msg s ~qid ~cz P_progress in
  Chunks.set s.vsteps h phase;
  Chunks.set s.weights h weight;
  h

(* An empty batch; returns its id. *)
let batch_open s =
  let b = s.batches in
  let id = take_id b 0 in
  Chunks.set b.b_len id 0;
  b.live <- b.live + 1;
  id

(* Append one traverser to batch [id], moving its elements to arrays of
   the next class when it is full. *)
let batch_push s id ~vertex ~step ~weight ~regs =
  let b = s.batches in
  let len = Chunks.get b.b_len id in
  if len = Array.length (Chunks.get b.b_vsteps id) then begin
    let j = take_id b (capacity_class (len + 1)) in
    Array.blit (Chunks.get b.b_vsteps id) 0 (Chunks.get b.b_vsteps j) 0 len;
    Array.blit (Chunks.get b.b_weights id) 0 (Chunks.get b.b_weights j) 0 len;
    Array.blit (Chunks.get b.b_regs id) 0 (Chunks.get b.b_regs j) 0 len;
    swap b.b_vsteps id j;
    swap b.b_weights id j;
    swap b.b_regs id j;
    park b j len
  end;
  (Chunks.get b.b_vsteps id).(len) <- vstep ~vertex ~step;
  (Chunks.get b.b_weights id).(len) <- weight;
  (Chunks.get b.b_regs id).(len) <- regs;
  Chunks.set b.b_len id (len + 1)

(* A message carrying batch [id]. *)
let trav_batch s ~qid ~cz id =
  let h = msg s ~qid ~cz P_trav_batch in
  Chunks.set s.vsteps h id;
  h

(* Batch [id]'s element count and lanes: elements [0, batch_length) of
   each array are the batch's, in push order. *)
let batch_length s id = max 0 (Chunks.get s.batches.b_len id)
let batch_vsteps s id = Chunks.get s.batches.b_vsteps id
let batch_weights s id = Chunks.get s.batches.b_weights id
let batch_regs s id = Chunks.get s.batches.b_regs id

let batch_release s id =
  let b = s.batches in
  let len = Chunks.get b.b_len id in
  if len < 0 then invalid_arg "Payload.batch_release: batch already free";
  park b id len;
  b.live <- b.live - 1

(* Batches opened and not yet released. *)
let batches_in_use s = s.batches.live

let qid s h = Chunks.get s.ids h asr 32
let cz s h = (Chunks.get s.ids h land low) - 1
let set_cz s h cz = Chunks.set s.ids h (Chunks.get s.ids h land lnot low lor (cz + 1))
let batch s h = Chunks.get s.vsteps h
let phase s h = Chunks.get s.vsteps h
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
  | P_trav_batch ->
    (* One header amortized over the batch; elements pay only their own
       serialized size, not a per-message frame. *)
    let id = batch s h in
    let regs = batch_regs s id in
    let bytes = ref 16 in
    for i = 0 to batch_length s id - 1 do
      bytes := !bytes + Traverser.wire_bytes regs.(i)
    done;
    !bytes
  | P_progress -> 8 + Weight.bytes + 8
  | P_agg_flush _ -> 16
  | P_agg_partial p -> 16 + Aggregate.bytes p
  | P_agg_empty -> 16
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
      | P_trav_batch -> "arrive-batch"
      | P_progress -> "arrive-progress"
      | P_agg_flush _ -> "arrive-agg"
      | P_agg_partial _ | P_agg_empty -> "arrive-partial"
      | P_setup -> "arrive-setup"
      | P_setup_ack -> "arrive-ack"
      | P_migrate _ -> "arrive-migrate"
      | P_migrate_data _ -> "arrive-mdata"
      | P_cleanup -> "arrive-cleanup"
    in
    set_cz s h (Pstm_obs.Causal.hop causal ~qid:(qid s h) ~name ~ts ~src hop)
  end
