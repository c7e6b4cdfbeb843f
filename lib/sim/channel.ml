(* Two-tier message-passing channel (§IV-B of the paper).

   Tier 1 (thread-level combining, TLC): every worker keeps one buffer per
   destination node; messages stash there and the buffer flushes to tier 2
   when it exceeds [flush_bytes] (8 KB in the paper) or when the worker
   runs out of work. Tier 2 (node-level combining, NLC): a per-node network
   thread merges flushed buffers headed to the same destination node within
   a short window and emits one packet. Same-node messages short-cut
   through shared memory.

   Both tiers are independently toggleable, which is exactly the Figure 12
   ablation: no batching at all (every message is a packet and pays a
   syscall), TLC only (each flush is a packet), or TLC + NLC (full system).

   [send] and [flush_worker] return the CPU time the *calling worker*
   spent, which the engine adds to that worker's busy time. *)

type config = {
  tlc : bool;
  nlc : bool;
  flush_bytes : int;
  nlc_window : Sim_time.t;
}

let default_config = { tlc = true; nlc = true; flush_bytes = 8192; nlc_window = Sim_time.us 3 }

let no_batching = { default_config with tlc = false; nlc = false }
let tlc_only = { default_config with nlc = false }

(* A batch of messages: two parallel lanes, destination worker and
   message handle (the engine's slab slot). A batch moves between owners instead of being copied: a
   worker's tier-1 slot, the link's tier-2 pending slot, the packet in
   flight, and back to the channel's free list once delivered. Empty
   slots hold the channel's one shared [empty] sentinel, which is never
   written. *)
type batch = {
  dsts : int Vec.t;
  payloads : int Vec.t;
}

(* --- Reliable delivery (active only under a fault plane) -------------

   With faults attached to the cluster, packets can be lost, duplicated
   or delayed, so tier-2 output switches to a per-link sequence-numbered
   protocol: every data packet carries (link, seq); the receiver
   delivers a seq exactly once (dedup window = a low watermark plus the
   out-of-order set above it) and always acks; the sender retransmits on
   ack timeout with exponential backoff and abandons after
   [max_retries]. Weight conservation under retransmission is free:
   the traverser/progress payloads travel with the packet, and the dedup
   window guarantees the payloads run exactly once, so no weight is ever
   double-counted. Without faults none of this state exists and the
   send path is byte-identical to the unreliable build. *)

type packet = {
  p_src : int;
  p_dst : int;
  p_seq : int;
  p_messages : batch;
  p_bytes : int;
}

type reliable = {
  timeout : Sim_time.t; (* base ack timeout *)
  max_retries : int;
  next_seq : int array array; (* [src_node].(dst_node) *)
  outstanding : (int, packet) Hashtbl.t array array; (* [src].(dst): unacked seqs *)
  recv_low : int array array; (* [dst].(src): all seqs below are delivered *)
  recv_seen : (int, unit) Hashtbl.t array array; (* [dst].(src): delivered >= low *)
}

let seq_header_bytes = 8
let ack_bytes = 16
let max_backoff_doublings = 6

type t = {
  cluster : Cluster.t;
  config : config;
  deliver : int -> int -> unit; (* dst worker, message; runs at arrival time *)
  empty : batch; (* the shared empty-slot sentinel *)
  free : batch Vec.t; (* cleared batches ready for reuse *)
  buffers : batch array array; (* tier 1: [worker].(dst_node) *)
  buffer_bytes : int array array;
  pending : batch array array; (* tier 2: [src_node].(dst_node) *)
  pending_bytes : int array array;
  fire_at : int array array; (* [src_node].(dst_node): open NLC window's fire time, or -1 *)
  fire : (unit -> unit) array array; (* one window-fire thunk per link *)
  reliable : reliable option;
  (* True exactly while [deliver] runs for a packet whose delivering copy
     was a retransmission (attempt > 0). Observers (the causal tracer)
     read it from inside the deliver callback to classify the hop as
     retransmit-recovery rather than plain network time. *)
  mutable delivering_retx : bool;
}

let config t = t.config

let costs t = Cluster.costs t.cluster

let take_batch t =
  if Vec.is_empty t.free then
    { dsts = Vec.create ~dummy:(-1); payloads = Vec.create ~dummy:(-1) }
  else Vec.pop t.free

let recycle t batch =
  Vec.clear batch.dsts;
  Vec.clear batch.payloads;
  Vec.push t.free batch

let is_empty batch = Vec.is_empty batch.dsts

(* Hand a batch to the destination node in arrival order: charging a
   per-message receive cost is the engine's business. *)
let deliver_all t batch =
  for i = 0 to Vec.length batch.dsts - 1 do
    t.deliver (Vec.get batch.dsts i) (Vec.get batch.payloads i)
  done

(* Exponential backoff, capped so a long outage retries every few ms
   instead of going silent. *)
let backoff r ~attempt = r.timeout * (1 lsl min attempt max_backoff_doublings)

let rec transmit t r ~at ~attempt pkt =
  let events = Cluster.events t.cluster in
  let metrics = Cluster.metrics t.cluster in
  let at = max at (Cluster.now t.cluster) in
  Cluster.send_packet t.cluster ~at ~src_node:pkt.p_src ~dst_node:pkt.p_dst
    ~bytes:(pkt.p_bytes + seq_header_bytes)
    (fun () -> receive_data t r ~retx:(attempt > 0) pkt);
  (* Arm the ack timer: on expiry, retransmit iff still unacked. The
     timer shares the link's dependence class — whether it fires before
     or after a same-time ack arrival is a real protocol race. *)
  Event_queue.schedule_at events
    ~tag:(Cluster.link_tag t.cluster ~src_node:pkt.p_src ~dst_node:pkt.p_dst)
    ~time:(Sim_time.add at (backoff r ~attempt))
    (fun () ->
      if Hashtbl.mem r.outstanding.(pkt.p_src).(pkt.p_dst) pkt.p_seq then
        if Cluster.mutation t.cluster = Some Mutation.No_retransmit then
          (* Mutant: the timer fires but neither retransmits nor abandons,
             so a dropped packet is simply lost. *)
          ()
        else if attempt >= r.max_retries then begin
          (* Permanently lost: the sender stops; affected queries
             degrade to TIMEOUT instead of wedging the simulation. *)
          Metrics.(incr metrics Counter.abandoned);
          Cluster.emit_protocol t.cluster Cluster.Pkt_abandon ~src:pkt.p_src ~dst:pkt.p_dst
            ~seq:pkt.p_seq;
          Hashtbl.remove r.outstanding.(pkt.p_src).(pkt.p_dst) pkt.p_seq
        end
        else begin
          Metrics.(incr metrics Counter.retransmits);
          Cluster.emit_protocol t.cluster Cluster.Pkt_retransmit ~src:pkt.p_src ~dst:pkt.p_dst
            ~seq:pkt.p_seq;
          transmit t r ~at:(Event_queue.now events) ~attempt:(attempt + 1) pkt
        end)

and receive_data t r ~retx pkt =
  let metrics = Cluster.metrics t.cluster in
  let seen = r.recv_seen.(pkt.p_dst).(pkt.p_src) in
  let fresh = pkt.p_seq >= r.recv_low.(pkt.p_dst).(pkt.p_src) && not (Hashtbl.mem seen pkt.p_seq) in
  let fresh =
    (* Mutant: the dedup window is bypassed and every arrival — including
       retransmits of already-delivered packets — is applied. *)
    fresh || Cluster.mutation t.cluster = Some Mutation.Skip_dedup
  in
  if fresh then begin
    Hashtbl.replace seen pkt.p_seq ();
    (* Advance the low watermark over the contiguous prefix, shrinking
       the dedup window. *)
    let low = ref r.recv_low.(pkt.p_dst).(pkt.p_src) in
    while Hashtbl.mem seen !low do
      Hashtbl.remove seen !low;
      incr low
    done;
    r.recv_low.(pkt.p_dst).(pkt.p_src) <- !low;
    Cluster.emit_protocol t.cluster Cluster.Pkt_deliver ~src:pkt.p_src ~dst:pkt.p_dst
      ~seq:pkt.p_seq;
    t.delivering_retx <- retx;
    deliver_all t pkt.p_messages;
    t.delivering_retx <- false
  end
  else begin
    Metrics.(incr metrics Counter.dup_dropped);
    Cluster.emit_protocol t.cluster Cluster.Pkt_dup ~src:pkt.p_src ~dst:pkt.p_dst ~seq:pkt.p_seq
  end;
  (* Always ack — including duplicates, so a lost ack cannot cause an
     endless retransmit of an already-delivered packet. *)
  Metrics.(incr metrics Counter.acks);
  Cluster.send_packet t.cluster
    ~at:(Cluster.now t.cluster)
    ~src_node:pkt.p_dst ~dst_node:pkt.p_src ~bytes:ack_bytes
    (fun () ->
      Cluster.emit_protocol t.cluster Cluster.Pkt_ack ~src:pkt.p_src ~dst:pkt.p_dst
        ~seq:pkt.p_seq;
      Hashtbl.remove r.outstanding.(pkt.p_src).(pkt.p_dst) pkt.p_seq)

(* The packet owns [messages] from here on. Unreliable packets hand the
   batch back to the free list once delivered; reliable ones keep it for
   retransmission and never recycle it. *)
let emit_packet t ~at ~src_node ~dst_node messages bytes =
  match t.reliable with
  | None ->
    Cluster.send_packet t.cluster ~at ~src_node ~dst_node ~bytes (fun () ->
        deliver_all t messages;
        recycle t messages)
  | Some r ->
    let seq = r.next_seq.(src_node).(dst_node) in
    r.next_seq.(src_node).(dst_node) <- seq + 1;
    let pkt = { p_src = src_node; p_dst = dst_node; p_seq = seq; p_messages = messages; p_bytes = bytes } in
    Hashtbl.replace r.outstanding.(src_node).(dst_node) seq pkt;
    Cluster.emit_protocol t.cluster Cluster.Pkt_send ~src:src_node ~dst:dst_node ~seq;
    transmit t r ~at ~attempt:0 pkt

(* The NLC window of one link closes: the pending batch moves into the
   packet and the slot goes back to the sentinel. *)
let fire_window t ~src_node ~dst_node =
  let fire_at = t.fire_at.(src_node).(dst_node) in
  t.fire_at.(src_node).(dst_node) <- -1;
  let batch = t.pending.(src_node).(dst_node) in
  if not (is_empty batch) then begin
    let batch_bytes = t.pending_bytes.(src_node).(dst_node) in
    t.pending.(src_node).(dst_node) <- t.empty;
    t.pending_bytes.(src_node).(dst_node) <- 0;
    emit_packet t ~at:fire_at ~src_node ~dst_node batch batch_bytes
  end

let create cluster config ~deliver =
  let n_workers = Cluster.n_workers cluster in
  let n_nodes = Cluster.n_nodes cluster in
  let empty = { dsts = Vec.create ~dummy:(-1); payloads = Vec.create ~dummy:(-1) } in
  let reliable =
    match Cluster.faults cluster with
    | None -> None
    | Some faults ->
      let spec = Faults.spec faults in
      let table () = Array.init n_nodes (fun _ -> Array.init n_nodes (fun _ -> Hashtbl.create 16)) in
      Some
        {
          timeout = spec.Faults.retry_timeout;
          max_retries = spec.Faults.max_retries;
          next_seq = Array.make_matrix n_nodes n_nodes 0;
          outstanding = table ();
          recv_low = Array.make_matrix n_nodes n_nodes 0;
          recv_seen = table ();
        }
  in
  let t =
    {
      cluster;
      config;
      deliver;
      empty;
      free = Vec.create ~dummy:empty;
      buffers = Array.make_matrix n_workers n_nodes empty;
      buffer_bytes = Array.make_matrix n_workers n_nodes 0;
      pending = Array.make_matrix n_nodes n_nodes empty;
      pending_bytes = Array.make_matrix n_nodes n_nodes 0;
      fire_at = Array.make_matrix n_nodes n_nodes (-1);
      fire = Array.make_matrix n_nodes n_nodes ignore;
      reliable;
      delivering_retx = false;
    }
  in
  for src_node = 0 to n_nodes - 1 do
    for dst_node = 0 to n_nodes - 1 do
      t.fire.(src_node).(dst_node) <- (fun () -> fire_window t ~src_node ~dst_node)
    done
  done;
  t

(* Tier-2 entry: either open/extend an NLC window or emit immediately.
   [messages] is a tier-1 buffer the caller has given up. It becomes the
   link's pending batch if that slot is empty, or is appended there and
   recycled; without NLC it becomes the packet. *)
let to_combiner t ~at ~src_node ~dst_node messages bytes =
  Metrics.(incr (Cluster.metrics t.cluster) Counter.flushes);
  if t.config.nlc then begin
    let pending = t.pending.(src_node).(dst_node) in
    if is_empty pending then t.pending.(src_node).(dst_node) <- messages
    else begin
      Vec.append ~into:pending.dsts messages.dsts;
      Vec.append ~into:pending.payloads messages.payloads;
      recycle t messages
    end;
    t.pending_bytes.(src_node).(dst_node) <- t.pending_bytes.(src_node).(dst_node) + bytes;
    if t.fire_at.(src_node).(dst_node) < 0 then begin
      let fire_at = Sim_time.add (max at (Cluster.now t.cluster)) t.config.nlc_window in
      t.fire_at.(src_node).(dst_node) <- fire_at;
      Event_queue.schedule_at (Cluster.events t.cluster) ~time:fire_at
        ~tag:(Cluster.link_tag t.cluster ~src_node ~dst_node)
        t.fire.(src_node).(dst_node)
    end
  end
  else emit_packet t ~at ~src_node ~dst_node messages bytes

let delivering_retransmitted t = t.delivering_retx

let flush_buffer t ~at ~worker ~dst_node =
  let buffer = t.buffers.(worker).(dst_node) in
  if is_empty buffer then Sim_time.zero
  else begin
    let bytes = t.buffer_bytes.(worker).(dst_node) in
    let src_node = Cluster.node_of_worker t.cluster worker in
    t.buffers.(worker).(dst_node) <- t.empty;
    t.buffer_bytes.(worker).(dst_node) <- 0;
    to_combiner t ~at ~src_node ~dst_node buffer bytes;
    (costs t).Cluster.flush_handoff
  end

(* Send one message; returns the sender's CPU cost. *)
let send t ~at ~src_worker ~dst_worker ~kind ~bytes payload =
  let metrics = Cluster.metrics t.cluster in
  if Cluster.same_node t.cluster src_worker dst_worker then begin
    (* Shared-memory shortcut: no NIC, no batching. *)
    Metrics.count_message metrics kind bytes;
    Cluster.send_local t.cluster ~at
      ~tag:(Cluster.worker_tag t.cluster dst_worker)
      (fun () -> t.deliver dst_worker payload);
    (costs t).Cluster.buffer_append
  end
  else begin
    Metrics.count_message metrics kind bytes;
    let dst_node = Cluster.node_of_worker t.cluster dst_worker in
    if t.config.tlc then begin
      let buffer =
        let b = t.buffers.(src_worker).(dst_node) in
        if b != t.empty then b
        else begin
          let b = take_batch t in
          t.buffers.(src_worker).(dst_node) <- b;
          b
        end
      in
      Vec.push buffer.dsts dst_worker;
      Vec.push buffer.payloads payload;
      t.buffer_bytes.(src_worker).(dst_node) <- t.buffer_bytes.(src_worker).(dst_node) + bytes;
      let append_cost = (costs t).Cluster.buffer_append in
      if t.buffer_bytes.(src_worker).(dst_node) >= t.config.flush_bytes then
        Sim_time.add append_cost (flush_buffer t ~at ~worker:src_worker ~dst_node)
      else append_cost
    end
    else begin
      (* No batching: the message is its own packet and pays a syscall. *)
      Metrics.(incr metrics Counter.flushes);
      let src_node = Cluster.node_of_worker t.cluster src_worker in
      let singleton = take_batch t in
      Vec.push singleton.dsts dst_worker;
      Vec.push singleton.payloads payload;
      emit_packet t ~at ~src_node ~dst_node singleton bytes;
      (costs t).Cluster.direct_send
    end
  end

(* Flush every buffer of [worker] — called before the worker sleeps, as in
   §IV-B ("if there are no more traversers ready ... flush all buffers"). *)
let flush_worker t ~at ~worker =
  let total = ref Sim_time.zero in
  for dst_node = 0 to Cluster.n_nodes t.cluster - 1 do
    total := Sim_time.add !total (flush_buffer t ~at ~worker ~dst_node)
  done;
  !total
