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

(* Messages are int handles (the engine's slab slots), and a message
   in flight is its own list cell: one link lane indexed by handle
   ({!Chunks}) holds its destination worker and the next message of its
   chain (-1 ends it). A chain moves between owners by its (head, tail)
   pair, never copied: a worker's tier-1 buffer, the link's tier-2
   pending chain (a flushed buffer is spliced onto its tail in O(1)),
   then an unreliable packet, which is just its head handle. Each
   handle is in at most one chain at a time, because the engine sends a
   message once and consumes it once. *)

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
  p_messages : int array;
      (* (destination worker, handle) pairs in delivery order, copied from
         the chain at emit: retransmissions walk them again after the
         handles have been consumed and reused *)
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
  links : int Chunks.t; (* by handle: destination worker and next message *)
  heads : int array array; (* tier 1: [worker].(dst_node) chain, -1 when empty *)
  tails : int array array;
  buffer_bytes : int array array;
  pending_heads : int array array; (* tier 2: [src_node].(dst_node) chain *)
  pending_tails : int array array;
  pending_bytes : int array array;
  fire_at : int array array; (* [src_node].(dst_node): open NLC window's fire time, or -1 *)
  (* The three prebuilt event actions, each fired on an int argument:
     a packet's arrival on its chain's head, a same-node hand-off on its
     handle, an NLC window's close on its link, [src_node * n_nodes +
     dst_node]. Set once by [create]. *)
  mutable arrive : int -> unit;
  mutable arrive_local : int -> unit;
  mutable fire : int -> unit;
  reliable : reliable option;
  (* True exactly while [deliver] runs for a packet whose delivering copy
     was a retransmission (attempt > 0). Observers (the causal tracer)
     read it from inside the deliver callback to classify the hop as
     retransmit-recovery rather than plain network time. *)
  mutable delivering_retx : bool;
}

let config t = t.config

let costs t = Cluster.costs t.cluster

(* A message's link word packs its destination worker into the high 31
   bits and the next handle + 1 into the low 32 (0 ends the chain).
   Workers range over [0, 2^30), handles over [0, 2^32 - 1). *)
let low = 0xFFFF_FFFF
let[@inline] dst t h = Chunks.get t.links h lsr 32
let[@inline] next t h = (Chunks.get t.links h land low) - 1
let set_next t h next =
  Chunks.set t.links h (Chunks.get t.links h land lnot low lor (next + 1))

(* Grow the lane to cover handle [h]. *)
let reserve t h =
  while h >= Chunks.capacity t.links do
    Chunks.grow t.links 0
  done

(* Hand a chain to the destination node in order: charging a
   per-message receive cost is the engine's business. Each link is read
   before its message is handed over. *)
let deliver_chain t head =
  let h = ref head in
  while !h >= 0 do
    let m = !h in
    h := next t m;
    t.deliver (dst t m) m
  done

let chain_length t head =
  let n = ref 0 and h = ref head in
  while !h >= 0 do
    incr n;
    h := next t !h
  done;
  !n

let pairs_of_chain t head =
  let pairs = Array.make (2 * chain_length t head) 0 in
  let h = ref head in
  for i = 0 to (Array.length pairs / 2) - 1 do
    pairs.(2 * i) <- dst t !h;
    pairs.((2 * i) + 1) <- !h;
    h := next t !h
  done;
  pairs

let deliver_pairs t pairs =
  for i = 0 to (Array.length pairs / 2) - 1 do
    t.deliver pairs.(2 * i) pairs.((2 * i) + 1)
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
    (fun _ -> receive_data t r ~retx:(attempt > 0) pkt)
    0;
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
    deliver_pairs t pkt.p_messages;
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
    (fun _ ->
      Cluster.emit_protocol t.cluster Cluster.Pkt_ack ~src:pkt.p_src ~dst:pkt.p_dst
        ~seq:pkt.p_seq;
      Hashtbl.remove r.outstanding.(pkt.p_src).(pkt.p_dst) pkt.p_seq)
    0

(* The packet owns the chain from [head] on. An unreliable packet is
   its head: the arrival event walks the chain. A reliable one copies
   the chain into its (destination, handle) pairs. *)
let emit_packet t ~at ~src_node ~dst_node head bytes =
  match t.reliable with
  | None -> Cluster.send_packet t.cluster ~at ~src_node ~dst_node ~bytes t.arrive head
  | Some r ->
    let seq = r.next_seq.(src_node).(dst_node) in
    r.next_seq.(src_node).(dst_node) <- seq + 1;
    let pkt =
      { p_src = src_node; p_dst = dst_node; p_seq = seq; p_messages = pairs_of_chain t head;
        p_bytes = bytes }
    in
    Hashtbl.replace r.outstanding.(src_node).(dst_node) seq pkt;
    Cluster.emit_protocol t.cluster Cluster.Pkt_send ~src:src_node ~dst:dst_node ~seq;
    transmit t r ~at ~attempt:0 pkt

(* The NLC window of link [src_node * n_nodes + dst_node] closes: the
   pending chain becomes the packet. *)
let fire_window t link =
  let n_nodes = Cluster.n_nodes t.cluster in
  let src_node = link / n_nodes and dst_node = link mod n_nodes in
  let fire_at = t.fire_at.(src_node).(dst_node) in
  t.fire_at.(src_node).(dst_node) <- -1;
  let head = t.pending_heads.(src_node).(dst_node) in
  if head >= 0 then begin
    let bytes = t.pending_bytes.(src_node).(dst_node) in
    t.pending_heads.(src_node).(dst_node) <- -1;
    t.pending_tails.(src_node).(dst_node) <- -1;
    t.pending_bytes.(src_node).(dst_node) <- 0;
    emit_packet t ~at:fire_at ~src_node ~dst_node head bytes
  end

let create cluster config ~deliver =
  let n_workers = Cluster.n_workers cluster in
  let n_nodes = Cluster.n_nodes cluster in
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
  let unset (_ : int) = () in
  let t =
    {
      cluster;
      config;
      deliver;
      links = Chunks.create ();
      heads = Array.make_matrix n_workers n_nodes (-1);
      tails = Array.make_matrix n_workers n_nodes (-1);
      buffer_bytes = Array.make_matrix n_workers n_nodes 0;
      pending_heads = Array.make_matrix n_nodes n_nodes (-1);
      pending_tails = Array.make_matrix n_nodes n_nodes (-1);
      pending_bytes = Array.make_matrix n_nodes n_nodes 0;
      fire_at = Array.make_matrix n_nodes n_nodes (-1);
      arrive = unset;
      arrive_local = unset;
      fire = unset;
      reliable;
      delivering_retx = false;
    }
  in
  t.arrive <- deliver_chain t;
  t.arrive_local <- (fun h -> t.deliver (dst t h) h);
  t.fire <- fire_window t;
  t

(* Tier-2 entry: either open/extend an NLC window or emit immediately.
   The chain [head .. tail] is a tier-1 buffer the caller has given up.
   It is spliced onto the link's pending chain; without NLC it becomes
   the packet. *)
let to_combiner t ~at ~src_node ~dst_node ~head ~tail bytes =
  Metrics.(incr (Cluster.metrics t.cluster) Counter.flushes);
  if t.config.nlc then begin
    let last = t.pending_tails.(src_node).(dst_node) in
    if last < 0 then t.pending_heads.(src_node).(dst_node) <- head else set_next t last head;
    t.pending_tails.(src_node).(dst_node) <- tail;
    t.pending_bytes.(src_node).(dst_node) <- t.pending_bytes.(src_node).(dst_node) + bytes;
    if t.fire_at.(src_node).(dst_node) < 0 then begin
      let fire_at = Sim_time.add (max at (Cluster.now t.cluster)) t.config.nlc_window in
      t.fire_at.(src_node).(dst_node) <- fire_at;
      Event_queue.schedule_call (Cluster.events t.cluster) ~time:fire_at
        ~tag:(Cluster.link_tag t.cluster ~src_node ~dst_node)
        t.fire
        ((src_node * Cluster.n_nodes t.cluster) + dst_node)
    end
  end
  else emit_packet t ~at ~src_node ~dst_node head bytes

let delivering_retransmitted t = t.delivering_retx

let flush_buffer t ~at ~worker ~dst_node =
  let head = t.heads.(worker).(dst_node) in
  if head < 0 then Sim_time.zero
  else begin
    let tail = t.tails.(worker).(dst_node) and bytes = t.buffer_bytes.(worker).(dst_node) in
    let src_node = Cluster.node_of_worker t.cluster worker in
    t.heads.(worker).(dst_node) <- -1;
    t.tails.(worker).(dst_node) <- -1;
    t.buffer_bytes.(worker).(dst_node) <- 0;
    to_combiner t ~at ~src_node ~dst_node ~head ~tail bytes;
    (costs t).Cluster.flush_handoff
  end

(* Send one message; returns the sender's CPU cost. *)
let send t ~at ~src_worker ~dst_worker ~kind ~bytes h =
  let metrics = Cluster.metrics t.cluster in
  Metrics.count_message metrics kind bytes;
  reserve t h;
  (* The message ends its chain until another is linked after it. *)
  Chunks.set t.links h (dst_worker lsl 32);
  if Cluster.same_node t.cluster src_worker dst_worker then begin
    (* Shared-memory shortcut: no NIC, no batching. *)
    Cluster.send_local t.cluster ~at ~tag:(Cluster.worker_tag t.cluster dst_worker) t.arrive_local h;
    (costs t).Cluster.buffer_append
  end
  else begin
    let dst_node = Cluster.node_of_worker t.cluster dst_worker in
    if t.config.tlc then begin
      let last = t.tails.(src_worker).(dst_node) in
      if last < 0 then t.heads.(src_worker).(dst_node) <- h else set_next t last h;
      t.tails.(src_worker).(dst_node) <- h;
      t.buffer_bytes.(src_worker).(dst_node) <- t.buffer_bytes.(src_worker).(dst_node) + bytes;
      let append_cost = (costs t).Cluster.buffer_append in
      if t.buffer_bytes.(src_worker).(dst_node) >= t.config.flush_bytes then
        Sim_time.add append_cost (flush_buffer t ~at ~worker:src_worker ~dst_node)
      else append_cost
    end
    else begin
      (* No batching: the message is its own packet and pays a syscall. *)
      Metrics.(incr metrics Counter.flushes);
      emit_packet t ~at ~src_node:(Cluster.node_of_worker t.cluster src_worker) ~dst_node h bytes;
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

(* Messages still in a tier-1 buffer or an NLC pending chain. *)
let held t =
  let n = ref 0 in
  let count heads = Array.iter (Array.iter (fun head -> n := !n + chain_length t head)) heads in
  count t.heads;
  count t.pending_heads;
  !n
