(* Unit and property tests for pstm_sim: clock, event queue, network
   model, cluster NIC serialization and the two-tier channel. *)

let qcheck = QCheck_alcotest.to_alcotest

(* --- Sim_time --- *)

let test_time_conversions () =
  Alcotest.(check int) "us" 1_000 (Sim_time.us 1);
  Alcotest.(check int) "ms" 1_000_000 (Sim_time.ms 1);
  Alcotest.(check (float 0.0001)) "to_ms" 1.5 (Sim_time.to_ms (Sim_time.us 1_500));
  Alcotest.(check string) "pp us" "1.50us" (Fmt.str "%a" Sim_time.pp (Sim_time.ns 1_500));
  Alcotest.(check string) "pp ms" "2.000ms" (Fmt.str "%a" Sim_time.pp (Sim_time.ms 2))

(* --- Event_queue --- *)

let test_event_order () =
  let q = Event_queue.create () in
  let log = ref [] in
  Event_queue.schedule_at q ~time:30 ~tag:0 (fun () -> log := 3 :: !log);
  Event_queue.schedule_at q ~time:10 ~tag:0 (fun () -> log := 1 :: !log);
  Event_queue.schedule_at q ~time:20 ~tag:0 (fun () -> log := 2 :: !log);
  Event_queue.run_to_completion q;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log);
  Alcotest.(check int) "clock at last event" 30 (Event_queue.now q)

let test_event_tie_break_fifo () =
  let q = Event_queue.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Event_queue.schedule_at q ~time:7 ~tag:0 (fun () -> log := i :: !log)
  done;
  Event_queue.run_to_completion q;
  Alcotest.(check (list int)) "fifo at equal times" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_event_chooser_permutes_ties () =
  (* A chooser sees each same-timestamp batch as (insertion seq, tag)
     choices and picks which entry fires first; unpicked entries keep
     their seqs, so the remaining order stays stable. *)
  let q = Event_queue.create () in
  let log = ref [] in
  let seen = ref [] in
  for i = 1 to 4 do
    Event_queue.schedule_at q ~time:7 ~tag:i (fun () -> log := i :: !log)
  done;
  Event_queue.set_chooser q
    (Some
       (fun choices ->
         seen := Array.to_list (Array.map (fun c -> c.Event_queue.c_tag) choices) :: !seen;
         Array.length choices - 1));
  Event_queue.run_to_completion q;
  Alcotest.(check (list int)) "always picks the youngest tied entry" [ 4; 3; 2; 1 ]
    (List.rev !log);
  (match List.rev !seen with
  | [ 1; 2; 3; 4 ] :: _ -> ()
  | _ -> Alcotest.fail "first batch should expose all four tags in insertion order");
  (* Out-of-range picks clamp to the default order. *)
  let q = Event_queue.create () in
  let log = ref [] in
  for i = 1 to 3 do
    Event_queue.schedule_at q ~time:7 ~tag:0 (fun () -> log := i :: !log)
  done;
  Event_queue.set_chooser q (Some (fun _ -> 99));
  Event_queue.run_to_completion q;
  Alcotest.(check (list int)) "clamped to fifo" [ 1; 2; 3 ] (List.rev !log)

let test_event_seq_monotonic () =
  let q = Event_queue.create () in
  let a = Event_queue.next_seq q in
  Event_queue.schedule_at q ~time:1 ~tag:0 ignore;
  let b = Event_queue.next_seq q in
  Alcotest.(check bool) "insertion seq advances" true (b > a)

let test_event_cascade () =
  let q = Event_queue.create () in
  let count = ref 0 in
  let rec step n = if n > 0 then Event_queue.schedule_after q ~delay:5 ~tag:0 (fun () ->
      incr count;
      step (n - 1))
  in
  step 10;
  Event_queue.run_to_completion q;
  Alcotest.(check int) "all fired" 10 !count;
  Alcotest.(check int) "clock" 50 (Event_queue.now q)

let test_event_past_rejected () =
  let q = Event_queue.create () in
  Event_queue.schedule_at q ~time:10 ~tag:0 ignore;
  ignore (Event_queue.step q);
  Alcotest.(check bool) "raises on past" true
    (try
       Event_queue.schedule_at q ~time:5 ~tag:0 ignore;
       false
     with Invalid_argument _ -> true)

let test_event_run_until () =
  let q = Event_queue.create () in
  let fired = ref [] in
  List.iter
    (fun t -> Event_queue.schedule_at q ~time:t ~tag:0 (fun () -> fired := t :: !fired))
    [ 5; 15; 25 ];
  Event_queue.run_until q ~time:15;
  Alcotest.(check (list int)) "only up to 15" [ 5; 15 ] (List.rev !fired);
  Alcotest.(check int) "clock moved" 15 (Event_queue.now q);
  Alcotest.(check int) "one pending" 1 (Event_queue.pending q)

let test_event_budget () =
  let q = Event_queue.create () in
  let rec forever () = Event_queue.schedule_after q ~delay:1 ~tag:0 forever in
  forever ();
  Alcotest.(check bool) "budget enforced" true
    (try
       Event_queue.run_to_completion ~max_events:100 q;
       false
     with Failure _ -> true)

(* The budget counts events run, not loop turns: exactly [n] events
   drain under [~max_events:n], and one more raises. *)
let test_event_budget_exact () =
  let queue_of n =
    let q = Event_queue.create () in
    for i = 1 to n do
      Event_queue.schedule_at q ~time:i ~tag:0 ignore
    done;
    q
  in
  let q = queue_of 2 in
  Event_queue.run_to_completion ~max_events:2 q;
  Alcotest.(check int) "n events ran" 2 (Event_queue.executed q);
  let q = queue_of 3 in
  Alcotest.(check bool) "n + 1 events raise" true
    (try
       Event_queue.run_to_completion ~max_events:2 q;
       false
     with Failure _ -> true);
  Alcotest.(check int) "stopped after n" 2 (Event_queue.executed q)

(* Once the heap arrays have grown, scheduling and stepping a prebuilt
   thunk, or a prebuilt call on an int argument, allocates nothing.
   Measured: 0 words for 1 000 events, half of each kind. *)
let test_event_queue_allocates_nothing () =
  let q = Event_queue.create () in
  let thunk () = () in
  let sum = ref 0 in
  let call arg = sum := !sum + arg in
  let burst () =
    for i = 1 to 1000 do
      let time = Event_queue.now q + (i mod 7) in
      if i land 1 = 0 then Event_queue.schedule_at q ~time ~tag:(i land 3) thunk
      else Event_queue.schedule_call q ~time ~tag:(i land 3) call i
    done;
    while Event_queue.step q do
      ()
    done
  in
  burst ();
  let before = Gc.minor_words () in
  burst ();
  let words = int_of_float (Gc.minor_words () -. before) in
  Alcotest.(check int) "each call saw its argument" (2 * 250_000) !sum;
  if words > 0 then Alcotest.failf "1000 events allocated %d words (bound 0)" words

(* --- Ring --- *)

(* The ring buffer against [Stdlib.Queue], across growth (the capacity
   starts at 8) and wrap-around (pops move the head). *)
let ring_matches_queue =
  QCheck.Test.make ~name:"ring buffer matches Stdlib.Queue" ~count:300
    QCheck.(
      make
        ~print:Print.(list (option int))
        Gen.(list_size (int_range 0 300) (frequency [ (3, map Option.some nat); (2, return None) ])))
    (fun ops ->
      let r = Ring.create ~dummy:(-1) and q = Queue.create () in
      List.for_all
        (fun op ->
          let same_front =
            match op with
            | Some x ->
              Ring.push r x;
              Queue.add x q;
              true
            | None -> (
              match Queue.take_opt q with
              | Some x -> Ring.pop r = x
              | None -> ( try ignore (Ring.pop r); false with Invalid_argument _ -> true))
          in
          same_front && Ring.length r = Queue.length q && Ring.is_empty r = Queue.is_empty q)
        ops)

(* --- Netmodel --- *)

let test_netmodel_costs () =
  let net = Netmodel.default in
  let t1 = Netmodel.nic_occupancy net ~bytes:100 in
  let t2 = Netmodel.nic_occupancy net ~bytes:10_000 in
  Alcotest.(check bool) "monotone in bytes" true (t2 > t1);
  let slow = Netmodel.with_bandwidth net 50.0 in
  let wire_fast = Netmodel.wire_time net ~bytes:100_000 in
  let wire_slow = Netmodel.wire_time slow ~bytes:100_000 in
  Alcotest.(check bool) "4x bandwidth ratio" true
    (abs (wire_slow - (4 * wire_fast)) <= 4);
  Alcotest.(check bool) "per-packet floor" true (t1 >= net.Netmodel.per_packet)

(* --- Cluster --- *)

let test_cluster_topology () =
  let c = Cluster.create { Cluster.default_config with Cluster.n_nodes = 3; workers_per_node = 4 } in
  Alcotest.(check int) "workers" 12 (Cluster.n_workers c);
  Alcotest.(check int) "node of 5" 1 (Cluster.node_of_worker c 5);
  Alcotest.(check bool) "same node" true (Cluster.same_node c 4 7);
  Alcotest.(check bool) "different node" false (Cluster.same_node c 3 4);
  Alcotest.(check (array int)) "workers of node" [| 8; 9; 10; 11 |] (Cluster.workers_of_node c 2)

let test_cluster_nic_serializes () =
  let c = Cluster.create { Cluster.default_config with Cluster.n_nodes = 2; workers_per_node = 1 } in
  let arrivals = ref [] in
  (* Two packets from node 0 at the same instant must serialize through
     the NIC: the second arrives later. *)
  let arrive tag = arrivals := ((if tag = 0 then "a" else "b"), Cluster.now c) :: !arrivals in
  Cluster.send_packet c ~at:0 ~src_node:0 ~dst_node:1 ~bytes:8_000 arrive 0;
  Cluster.send_packet c ~at:0 ~src_node:0 ~dst_node:1 ~bytes:8_000 arrive 1;
  Event_queue.run_to_completion (Cluster.events c);
  match List.rev !arrivals with
  | [ ("a", ta); ("b", tb) ] ->
    Alcotest.(check bool) "second later" true (tb > ta);
    let occupancy = Netmodel.nic_occupancy (Cluster.net c) ~bytes:8_000 in
    Alcotest.(check int) "gap is one occupancy" occupancy (tb - ta)
  | _ -> Alcotest.fail "expected two arrivals in order"

(* --- Channel --- *)

let make_channel ?(config = Channel.default_config) ~n_nodes ~workers () =
  let cluster =
    Cluster.create { Cluster.default_config with Cluster.n_nodes = n_nodes; workers_per_node = workers }
  in
  let received = ref [] in
  let chan =
    Channel.create cluster config ~deliver:(fun dst payload ->
        received := (dst, payload, Cluster.now cluster) :: !received)
  in
  (cluster, chan, received)

let test_channel_delivers_everything () =
  let cluster, chan, received = make_channel ~n_nodes:2 ~workers:2 () in
  for i = 0 to 99 do
    ignore
      (Channel.send chan ~at:0 ~src_worker:0 ~dst_worker:(i mod 4) ~kind:Metrics.Traverser_msg
         ~bytes:40 i)
  done;
  ignore (Channel.flush_worker chan ~at:0 ~worker:0);
  Event_queue.run_to_completion (Cluster.events cluster);
  Alcotest.(check int) "all delivered" 100 (List.length !received);
  let payloads = List.sort compare (List.map (fun (_, p, _) -> p) !received) in
  Alcotest.(check (list int)) "each exactly once" (List.init 100 Fun.id) payloads;
  (* Destination correctness. *)
  List.iter (fun (dst, p, _) -> Alcotest.(check int) "routed correctly" (p mod 4) dst) !received

let test_channel_same_node_is_local () =
  let cluster, chan, received = make_channel ~n_nodes:2 ~workers:2 () in
  ignore (Channel.send chan ~at:0 ~src_worker:0 ~dst_worker:1 ~kind:Metrics.Control_msg ~bytes:16 7);
  Event_queue.run_to_completion (Cluster.events cluster);
  Alcotest.(check int) "delivered" 1 (List.length !received);
  Alcotest.(check int) "no packets" 0 Metrics.(get (Cluster.metrics cluster) Counter.packets);
  Alcotest.(check int) "counted local" 1
    Metrics.(get (Cluster.metrics cluster) Counter.local_messages)

let test_channel_threshold_flush () =
  let config = { Channel.default_config with Channel.flush_bytes = 100; nlc = false } in
  let cluster, chan, received = make_channel ~config ~n_nodes:2 ~workers:1 () in
  (* 3 x 40 bytes crosses the 100-byte threshold: flushes without an
     explicit flush_worker call. *)
  for i = 0 to 2 do
    ignore (Channel.send chan ~at:0 ~src_worker:0 ~dst_worker:1 ~kind:Metrics.Traverser_msg ~bytes:40 i)
  done;
  Event_queue.run_to_completion (Cluster.events cluster);
  Alcotest.(check int) "delivered on threshold" 3 (List.length !received);
  Alcotest.(check int) "single packet" 1 Metrics.(get (Cluster.metrics cluster) Counter.packets)

let test_channel_no_batching_packet_per_message () =
  let cluster, chan, received = make_channel ~config:Channel.no_batching ~n_nodes:2 ~workers:1 () in
  for i = 0 to 9 do
    ignore (Channel.send chan ~at:0 ~src_worker:0 ~dst_worker:1 ~kind:Metrics.Traverser_msg ~bytes:40 i)
  done;
  Event_queue.run_to_completion (Cluster.events cluster);
  Alcotest.(check int) "delivered" 10 (List.length !received);
  Alcotest.(check int) "one packet per message" 10
    Metrics.(get (Cluster.metrics cluster) Counter.packets)

let test_channel_nlc_combines () =
  (* Two workers on node 0 each flush to node 1 within one NLC window:
     one packet total. *)
  let cluster, chan, received = make_channel ~n_nodes:2 ~workers:2 () in
  ignore (Channel.send chan ~at:0 ~src_worker:0 ~dst_worker:2 ~kind:Metrics.Traverser_msg ~bytes:40 0);
  ignore (Channel.send chan ~at:0 ~src_worker:1 ~dst_worker:3 ~kind:Metrics.Traverser_msg ~bytes:40 1);
  ignore (Channel.flush_worker chan ~at:0 ~worker:0);
  ignore (Channel.flush_worker chan ~at:0 ~worker:1);
  Event_queue.run_to_completion (Cluster.events cluster);
  Alcotest.(check int) "delivered" 2 (List.length !received);
  Alcotest.(check int) "one combined packet" 1
    Metrics.(get (Cluster.metrics cluster) Counter.packets)

(* [held] counts the messages either tier still holds: a tier-1 buffer
   until its worker flushes, the link's NLC pending chain until the
   window fires. Same-node hand-offs are in neither. *)
let test_channel_held () =
  let cluster, chan, received = make_channel ~n_nodes:2 ~workers:2 () in
  let send src dst h =
    ignore
      (Channel.send chan ~at:0 ~src_worker:src ~dst_worker:dst ~kind:Metrics.Traverser_msg ~bytes:40 h
        : Sim_time.t)
  in
  send 0 2 0;
  send 1 3 1;
  send 0 1 2;
  Alcotest.(check int) "two in tier-1 buffers" 2 (Channel.held chan);
  ignore (Channel.flush_worker chan ~at:0 ~worker:0 : Sim_time.t);
  ignore (Channel.flush_worker chan ~at:0 ~worker:1 : Sim_time.t);
  Alcotest.(check int) "both in the pending chain" 2 (Channel.held chan);
  Event_queue.run_to_completion (Cluster.events cluster);
  Alcotest.(check int) "none after the window fired" 0 (Channel.held chan);
  Alcotest.(check int) "all delivered" 3 (List.length !received)

(* Allocation guard for the channel path: once a TLC+NLC channel without
   faults is warm (its lanes and event-queue arrays have grown), 1 000
   cross-node messages through [send], [flush_worker] and
   [run_to_completion] allocate nothing per message. Measured: 2 words
   for 1 000 messages (7 when each packet built an arrival closure); the
   bound allows 0.05 words per message. *)
let test_channel_allocation () =
  let cluster =
    Cluster.create { Cluster.default_config with Cluster.n_nodes = 2; workers_per_node = 1 }
  in
  let delivered = ref 0 in
  let chan =
    Channel.create cluster Channel.default_config ~deliver:(fun _ _ -> incr delivered)
  in
  let round () =
    let at = Cluster.now cluster in
    for i = 1 to 1000 do
      ignore
        (Channel.send chan ~at ~src_worker:0 ~dst_worker:1 ~kind:Metrics.Traverser_msg ~bytes:40 i
          : Sim_time.t)
    done;
    ignore (Channel.flush_worker chan ~at ~worker:0 : Sim_time.t);
    Event_queue.run_to_completion (Cluster.events cluster)
  in
  round ();
  round ();
  let before = Gc.minor_words () in
  round ();
  let words = int_of_float (Gc.minor_words () -. before) in
  Alcotest.(check int) "all delivered" 3000 !delivered;
  if words > 50 then Alcotest.failf "1000 messages allocated %d words (bound 50)" words

(* Words allocated on either heap: minor + major - promoted. A window
   that spans minor collections reads them exactly only if it starts on
   an empty minor heap: without the [Gc.minor] before the first reading,
   the same flood below read anywhere from 2.1 to 4.3 words per message
   depending on what earlier tests had left in the minor heap. *)
let heap_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* A fresh TLC+NLC channel flooded before any delivery: 100 000
   cross-node messages from two workers of node 0 to node 1 fill tier-1
   buffers, cross the flush threshold about 500 times and merge into one
   pending NLC chain, all before the window fires. The message lane (1
   word a handle, destination and next packed) is nearly all the channel
   allocates. Measured: 1.0 words per message; 2.1 with separate [next]
   and [dst] lanes; 5.3 when each buffer and the pending batch were
   pairs of doubling [Vec]s. *)
let test_channel_flood_allocation () =
  let cluster =
    Cluster.create { Cluster.default_config with Cluster.n_nodes = 2; workers_per_node = 2 }
  in
  let delivered = ref 0 in
  let chan = Channel.create cluster Channel.default_config ~deliver:(fun _ _ -> incr delivered) in
  let n = 100_000 in
  Gc.minor ();
  let before = heap_words () in
  for h = 0 to n - 1 do
    ignore
      (Channel.send chan ~at:0 ~src_worker:(h land 1) ~dst_worker:(2 + (h land 1))
         ~kind:Metrics.Traverser_msg ~bytes:40 h
        : Sim_time.t)
  done;
  let per_msg = (heap_words () -. before) /. float_of_int n in
  ignore (Channel.flush_worker chan ~at:0 ~worker:0 : Sim_time.t);
  ignore (Channel.flush_worker chan ~at:0 ~worker:1 : Sim_time.t);
  Event_queue.run_to_completion (Cluster.events cluster);
  Alcotest.(check int) "all delivered" n !delivered;
  if per_msg >= 1.5 then
    Alcotest.failf "flooding a fresh channel: %.2f words per message (bound 1.5)" per_msg

(* Same-node hand-offs fire the channel's one prebuilt action on the
   message handle: 1 000 warm ones allocate nothing. Measured: 0 words
   (6 words each with a closure per hand-off). *)
let test_channel_local_allocation () =
  let cluster =
    Cluster.create { Cluster.default_config with Cluster.n_nodes = 2; workers_per_node = 2 }
  in
  let delivered = ref 0 in
  let chan = Channel.create cluster Channel.default_config ~deliver:(fun _ _ -> incr delivered) in
  let round () =
    let at = Cluster.now cluster in
    for h = 0 to 999 do
      ignore
        (Channel.send chan ~at ~src_worker:0 ~dst_worker:1 ~kind:Metrics.Traverser_msg ~bytes:40 h
          : Sim_time.t)
    done;
    Event_queue.run_to_completion (Cluster.events cluster)
  in
  round ();
  round ();
  let before = Gc.minor_words () in
  round ();
  let words = int_of_float (Gc.minor_words () -. before) in
  Alcotest.(check int) "all delivered" 3000 !delivered;
  if words > 0 then Alcotest.failf "1000 same-node hand-offs allocated %d words (bound 0)" words

let channel_random_traffic =
  QCheck.Test.make ~name:"channel delivers arbitrary traffic exactly once" ~count:50
    QCheck.(list (pair (int_range 0 7) (int_range 0 7)))
    (fun sends ->
      let cluster, chan, received = make_channel ~n_nodes:4 ~workers:2 () in
      List.iteri
        (fun i (src, dst) ->
          ignore
            (Channel.send chan ~at:0 ~src_worker:src ~dst_worker:dst ~kind:Metrics.Traverser_msg
               ~bytes:30 i))
        sends;
      for w = 0 to 7 do
        ignore (Channel.flush_worker chan ~at:0 ~worker:w)
      done;
      Event_queue.run_to_completion (Cluster.events cluster);
      List.sort compare (List.map (fun (_, p, _) -> p) !received)
      = List.init (List.length sends) Fun.id)

(* Delivery order of the two tiers against a list model. Random traffic
   over 4 nodes x 2 workers (sends at or after the current time, worker
   flushes, partial runs of the event queue) goes through a real channel
   and through a model that keeps every tier-1 buffer, NLC pending batch
   and scheduled event as a plain list. The full (time, destination,
   handle) delivery sequence must agree. Message sizes are large enough
   that tier-1 buffers cross the 8 KB threshold, concurrent flushes to
   one node merge within an NLC window, and half the traffic stays on
   its node. The traffic picks among 8 workers, two per node; a wide
   shape spreads them over 32 772 workers per node, so destinations run
   past 2^16, and numbers the handles 1 031 apart, so a chain's links
   cross chunks of the channel's lane. *)
type chan_op =
  | Csend of int * int * int * int (* src worker, dst worker, bytes, at offset *)
  | Cflush of int (* worker *)
  | Crun of int (* run events up to now + delay *)

let chan_op_gen =
  QCheck.Gen.(
    frequency
      [
        ( 8,
          map
            (fun (src, dst, bytes, ahead) -> Csend (src, dst, bytes, ahead))
            (quad (int_range 0 7) (int_range 0 7) (int_range 100 3_000) (int_range 0 4_000)) );
        (2, map (fun w -> Cflush w) (int_range 0 7));
        (2, map (fun d -> Crun d) (int_range 0 6_000));
      ])

let pp_chan_op = function
  | Csend (s, d, b, a) -> Printf.sprintf "send %d->%d %dB +%d" s d b a
  | Cflush w -> Printf.sprintf "flush %d" w
  | Crun d -> Printf.sprintf "run +%d" d

type model_event =
  | Arrive of (int * int) list (* (dst worker, handle), in delivery order *)
  | Fire of int * int (* NLC window of (src node, dst node) *)

type chan_shape = { per_node : int; workers : int array; handle_stride : int }

(* The 8 workers the ops name, two per node. *)
let narrow = { per_node = 2; workers = Array.init 8 Fun.id; handle_stride = 1 }

let wide =
  let per_node = (1 lsl 15) + 4 in
  {
    per_node;
    workers = Array.init 8 (fun i -> ((i / 2) * per_node) + if i land 1 = 0 then 3 else per_node - 1);
    handle_stride = 1_031;
  }

let channel_model_run (config : Channel.config) shape ops =
  let n_nodes = 4 and per_node = shape.per_node in
  let n_workers = Array.length shape.workers in
  let node i = shape.workers.(i) / per_node in
  let cluster, chan, received = make_channel ~config ~n_nodes ~workers:per_node () in
  let net = Cluster.net cluster in
  let events = Cluster.events cluster in
  (* The model. *)
  let now = ref 0 and seq = ref 0 in
  let queue = ref [] (* (time, seq, event) *) in
  let log = ref [] (* (time, dst, handle), newest first *) in
  let nic = Array.make n_nodes 0 in
  let buffers = Array.make_matrix n_workers n_nodes [] in
  let buffer_bytes = Array.make_matrix n_workers n_nodes 0 in
  let pending = Array.make_matrix n_nodes n_nodes [] in
  let pending_bytes = Array.make_matrix n_nodes n_nodes 0 in
  let fire_at = Array.make_matrix n_nodes n_nodes (-1) in
  let schedule time ev =
    queue := (time, !seq, ev) :: !queue;
    incr seq
  in
  let emit ~at ~src msgs bytes =
    let start = max (max at !now) nic.(src) in
    let occupancy = Netmodel.nic_occupancy net ~bytes in
    nic.(src) <- start + occupancy;
    schedule (start + occupancy + net.Netmodel.wire_latency) (Arrive msgs)
  in
  let combine ~at ~src ~dst msgs bytes =
    if config.Channel.nlc then begin
      pending.(src).(dst) <- pending.(src).(dst) @ msgs;
      pending_bytes.(src).(dst) <- pending_bytes.(src).(dst) + bytes;
      if fire_at.(src).(dst) < 0 then begin
        fire_at.(src).(dst) <- max at !now + config.Channel.nlc_window;
        schedule fire_at.(src).(dst) (Fire (src, dst))
      end
    end
    else emit ~at ~src msgs bytes
  in
  let flush ~at w dst =
    if buffers.(w).(dst) <> [] then begin
      let msgs = buffers.(w).(dst) and bytes = buffer_bytes.(w).(dst) in
      buffers.(w).(dst) <- [];
      buffer_bytes.(w).(dst) <- 0;
      combine ~at ~src:(node w) ~dst msgs bytes
    end
  in
  let send ~at ~src ~dst ~bytes h =
    let msg = (shape.workers.(dst), h) in
    if node src = node dst then schedule (max at !now + net.Netmodel.shm_latency) (Arrive [ msg ])
    else if config.Channel.tlc then begin
      let d = node dst in
      buffers.(src).(d) <- buffers.(src).(d) @ [ msg ];
      buffer_bytes.(src).(d) <- buffer_bytes.(src).(d) + bytes;
      if buffer_bytes.(src).(d) >= config.Channel.flush_bytes then flush ~at src d
    end
    else emit ~at ~src:(node src) [ msg ] bytes
  in
  let model_step () =
    match List.sort compare !queue with
    | [] -> false
    | ((time, _, ev) as e) :: _ ->
      queue := List.filter (fun x -> x != e) !queue;
      now := time;
      (match ev with
      | Arrive msgs -> List.iter (fun (dst, h) -> log := (time, dst, h) :: !log) msgs
      | Fire (src, dst) ->
        let at = fire_at.(src).(dst) in
        fire_at.(src).(dst) <- -1;
        if pending.(src).(dst) <> [] then begin
          let msgs = pending.(src).(dst) and bytes = pending_bytes.(src).(dst) in
          pending.(src).(dst) <- [];
          pending_bytes.(src).(dst) <- 0;
          emit ~at ~src msgs bytes
        end);
      true
  in
  let model_run_until time =
    while
      match List.sort compare !queue with
      | (t, _, _) :: _ when t <= time -> model_step ()
      | _ -> false
    do
      ()
    done;
    if !now < time then now := time
  in
  let next_handle = ref 0 in
  let apply = function
    | Csend (src, dst, bytes, ahead) ->
      let h = !next_handle * shape.handle_stride in
      incr next_handle;
      let at = Cluster.now cluster + ahead in
      ignore
        (Channel.send chan ~at ~src_worker:shape.workers.(src) ~dst_worker:shape.workers.(dst)
           ~kind:Metrics.Traverser_msg ~bytes h
          : Sim_time.t);
      send ~at ~src ~dst ~bytes h
    | Cflush w ->
      let at = Cluster.now cluster in
      ignore (Channel.flush_worker chan ~at ~worker:shape.workers.(w) : Sim_time.t);
      for d = 0 to n_nodes - 1 do
        flush ~at w d
      done
    | Crun d ->
      let time = Cluster.now cluster + d in
      Event_queue.run_until events ~time;
      model_run_until time
  in
  List.iter apply ops;
  for w = 0 to n_workers - 1 do
    apply (Cflush w)
  done;
  Event_queue.run_to_completion events;
  while model_step () do
    ()
  done;
  let got = List.rev_map (fun (dst, h, time) -> (time, dst, h)) !received in
  let want = List.rev !log in
  if got <> want then
    QCheck.Test.fail_reportf "delivered %d messages, model %d; first difference at %d"
      (List.length got) (List.length want)
      (let rec first i = function
         | x :: xs, y :: ys -> if x = y then first (i + 1) (xs, ys) else i
         | _ -> i
       in
       first 0 (got, want));
  true

let channel_matches_model =
  let arb =
    QCheck.make
      ~print:(fun ops -> String.concat "; " (List.map pp_chan_op ops))
      QCheck.Gen.(list_size (int_range 0 150) chan_op_gen)
  in
  List.map
    (fun (name, config, shape) ->
      QCheck.Test.make ~name:("channel delivery order matches the tier model, " ^ name) ~count:100
        arb (channel_model_run config shape))
    [
      ("no batching", Channel.no_batching, narrow);
      ("tlc only", Channel.tlc_only, narrow);
      ("tlc+nlc", Channel.default_config, narrow);
      ("tlc+nlc, wide workers and spread handles", Channel.default_config, wide);
    ]

(* Random schedules execute in nondecreasing time order regardless of
   insertion order. *)
let event_order_random =
  QCheck.Test.make ~name:"random schedules run in time order" ~count:200
    QCheck.(list (int_range 0 1000))
    (fun times ->
      let q = Event_queue.create () in
      let log = ref [] in
      List.iter
        (fun t -> Event_queue.schedule_at q ~time:t ~tag:0 (fun () -> log := t :: !log))
        times;
      Event_queue.run_to_completion q;
      List.rev !log = List.sort compare times)

(* Model-based check of the event queue: random interleavings of
   [schedule_at] and [schedule_call] (with ties and tags), [step] and
   [run_until] against a reference that keeps every pending event as a
   (time, seq, tag, id) list. After each operation the queue must agree
   with the reference on [now], [pending], [next_time] and the ids fired
   so far. A [schedule_call] entry passes its id as the argument of one
   shared call, so a call that fired with another entry's argument, or
   an argument the chooser path did not push back intact, shows up as a
   wrong id. With a chooser, the reference also checks that each tied
   batch is presented as the reference's tied set in seq order, and it
   applies the same pick. *)
type eq_op =
  | Sched of int * int (* delay from now (0 makes ties), tag *)
  | Call of int * int (* the same through [schedule_call] *)
  | Step
  | Until of int (* delay from now *)

let eq_op_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map2 (fun d tag -> Sched (d, tag)) (int_range 0 4) (int_range 0 3));
        (2, map2 (fun d tag -> Call (d, tag)) (int_range 0 4) (int_range 0 3));
        (3, return Step);
        (1, map (fun d -> Until d) (int_range 0 6));
      ])

let pp_eq_op = function
  | Sched (d, tag) -> Printf.sprintf "sched +%d tag %d" d tag
  | Call (d, tag) -> Printf.sprintf "call +%d tag %d" d tag
  | Step -> "step"
  | Until d -> Printf.sprintf "until +%d" d

let eq_model_matches ~with_chooser (ops, picks) =
  let q = Event_queue.create () in
  let fired = ref [] in
  let call id = fired := id :: !fired in
  (* The chooser cycles through [picks] (out-of-range values included)
     and records what it was shown. *)
  let picks = Array.of_list (if picks = [] then [ 0 ] else picks) in
  let shown = Queue.create () in
  let n_calls = ref 0 in
  if with_chooser then
    Event_queue.set_chooser q
      (Some
         (fun choices ->
           Queue.add choices shown;
           let p = picks.(!n_calls mod Array.length picks) in
           incr n_calls;
           p));
  (* Reference state. *)
  let now = ref 0 and next_seq = ref 0 and next_id = ref 0 in
  let pending = ref [] (* (time, seq, tag, id), unordered *) in
  let expected_fired = ref [] in
  let ref_calls = ref 0 in
  let expect what cond = if not cond then QCheck.Test.fail_reportf "%s" what in
  let ref_step () =
    match List.sort compare !pending with
    | [] -> false
    | ((t0, _, _, _) :: _) as sorted ->
      let tied = List.filter (fun (t, _, _, _) -> t = t0) sorted in
      let n = List.length tied in
      let pick =
        if with_chooser && n >= 2 then begin
          let p = picks.(!ref_calls mod Array.length picks) in
          incr ref_calls;
          let presented =
            match Queue.take_opt shown with
            | None -> []
            | Some choices ->
              Array.to_list
                (Array.map (fun c -> (c.Event_queue.c_seq, c.Event_queue.c_tag)) choices)
          in
          expect "tied set presented in seq order"
            (presented = List.map (fun (_, s, tag, _) -> (s, tag)) tied);
          if p < 0 || p >= n then 0 else p
        end
        else 0
      in
      let ((t, _, _, id) as e) = List.nth tied pick in
      pending := List.filter (fun x -> x <> e) !pending;
      now := t;
      expected_fired := id :: !expected_fired;
      true
  in
  let check_state label =
    expect (label ^ ": now") (Event_queue.now q = !now);
    expect (label ^ ": pending") (Event_queue.pending q = List.length !pending);
    let ref_next =
      match List.sort compare !pending with [] -> None | (t, _, _, _) :: _ -> Some t
    in
    expect (label ^ ": next_time") (Event_queue.next_time q = ref_next);
    expect (label ^ ": fired order") (!fired = !expected_fired);
    expect (label ^ ": chooser calls") (Queue.is_empty shown)
  in
  List.iter
    (fun op ->
      (match op with
        | Sched (d, tag) | Call (d, tag) ->
          let id = !next_id in
          incr next_id;
          let time = !now + d in
          (match op with
          | Call _ -> Event_queue.schedule_call q ~tag ~time call id
          | _ -> Event_queue.schedule_at q ~tag ~time (fun () -> fired := id :: !fired));
          pending := (time, !next_seq, tag, id) :: !pending;
          incr next_seq
        | Step ->
          let got = Event_queue.step q in
          let want = ref_step () in
          expect "step result" (got = want)
        | Until d ->
          let time = !now + d in
          Event_queue.run_until q ~time;
          while
            match List.sort compare !pending with
            | (t, _, _, _) :: _ when t <= time -> ref_step ()
            | _ -> false
          do
            ()
          done;
          if !now < time then now := time);
      check_state (pp_eq_op op))
    ops;
  (* Drain what is left. *)
  Event_queue.run_to_completion q;
  while ref_step () do
    ()
  done;
  check_state "drain";
  true

let eq_model_arb =
  QCheck.make
    ~print:(fun (ops, picks) ->
      String.concat "; " (List.map pp_eq_op ops)
      ^ " | picks " ^ String.concat "," (List.map string_of_int picks))
    QCheck.Gen.(
      pair (list_size (int_range 0 120) eq_op_gen) (list_size (int_range 1 8) (int_range (-1) 5)))

let event_queue_model =
  QCheck.Test.make ~name:"event queue matches a sorted-list model" ~count:300 eq_model_arb
    (eq_model_matches ~with_chooser:false)

let event_queue_model_chooser =
  QCheck.Test.make ~name:"event queue with a chooser matches the model" ~count:300 eq_model_arb
    (eq_model_matches ~with_chooser:true)

(* Histogram percentiles track exact percentiles within bucket error. *)
let histogram_tracks_exact =
  QCheck.Test.make ~name:"histogram percentile near exact" ~count:100
    QCheck.(list_of_size (Gen.int_range 50 300) (float_range 0.001 10.0))
    (fun samples ->
      let h = Histogram.create () in
      List.iter (Histogram.add h) samples;
      let arr = Array.of_list samples in
      List.for_all
        (fun q ->
          let exact = Stats.percentile arr q in
          let approx = Histogram.percentile h q in
          approx <= exact *. 1.25 +. 1e-9 && approx >= exact /. 1.25 -. 1e-9)
        [ 50.0; 90.0; 99.0 ])

(* --- Metrics --- *)

let test_metrics_counters () =
  let m = Metrics.create () in
  Metrics.count_message m Metrics.Progress_msg 24;
  Metrics.count_message m Metrics.Traverser_msg 40;
  Metrics.count_message m Metrics.Traverser_msg 40;
  Alcotest.(check int) "by kind" 1 (Metrics.messages m Metrics.Progress_msg);
  Alcotest.(check int) "bytes by kind" 80 (Metrics.message_bytes m Metrics.Traverser_msg);
  Alcotest.(check int) "total" 3 (Metrics.total_messages m);
  (* pp reports both counts and bytes per kind. *)
  let contains haystack needle =
    let nh = String.length haystack and nn = String.length needle in
    let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
    at 0
  in
  let rendered = Fmt.str "%a" Metrics.pp m in
  List.iter
    (fun kind ->
      let expected =
        Printf.sprintf "%s=%d/%dB" (Metrics.kind_name kind) (Metrics.messages m kind)
          (Metrics.message_bytes m kind)
      in
      Alcotest.(check bool)
        (Printf.sprintf "pp shows %s" expected)
        true (contains rendered expected))
    Metrics.all_kinds;
  (* Round trip every declared counter: each one counts on its own, and
     reset clears it along with the per-kind counts and the histogram. *)
  List.iteri
    (fun i c ->
      let key = Metrics.Counter.key c in
      Alcotest.(check bool) (key ^ " documented") true (Metrics.Counter.doc c <> "");
      Alcotest.(check int) (key ^ " starts at 0") 0 (Metrics.get m c);
      Metrics.incr m c;
      Metrics.add m c i;
      Alcotest.(check int) (key ^ " counts") (i + 1) (Metrics.get m c))
    Metrics.Counter.all;
  let keys = List.map Metrics.Counter.key Metrics.Counter.all in
  Alcotest.(check int) "keys unique" (List.length keys)
    (List.length (List.sort_uniq String.compare keys));
  Metrics.count_batch m ~traversers:5;
  Metrics.reset m;
  List.iter
    (fun c -> Alcotest.(check int) ("reset " ^ Metrics.Counter.key c) 0 (Metrics.get m c))
    Metrics.Counter.all;
  Alcotest.(check int) "reset messages" 0 (Metrics.total_messages m);
  List.iter
    (fun kind ->
      Alcotest.(check int) "reset kind bytes" 0 (Metrics.message_bytes m kind))
    Metrics.all_kinds;
  Alcotest.(check int) "reset batch sizes" 0 (Histogram.count (Metrics.batch_sizes m))

(* pp shows exactly the counters that fired, in declaration order
   whatever the order they were written in; reset hides them again. *)
let test_metrics_pp_fired () =
  let fired = Metrics.create () in
  Metrics.add fired Metrics.Counter.coalesced_msgs 2;
  Metrics.add fired Metrics.Counter.batches 3;
  Alcotest.(check int) "batches" 3 Metrics.(get fired Counter.batches);
  Alcotest.(check int) "coalesced" 2 Metrics.(get fired Counter.coalesced_msgs);
  Alcotest.(check string) "pp shows non-zero counters"
    "traverser=0/0B progress=0/0B control=0/0B result=0/0B batches=3 coalesced_msgs=2"
    (Fmt.str "%a" Metrics.pp fired);
  Metrics.reset fired;
  Alcotest.(check string) "reset clears"
    "traverser=0/0B progress=0/0B control=0/0B result=0/0B"
    (Fmt.str "%a" Metrics.pp fired)

let () =
  Alcotest.run "sim"
    [
      ("time", [ Alcotest.test_case "conversions" `Quick test_time_conversions ]);
      ( "events",
        [
          Alcotest.test_case "order" `Quick test_event_order;
          Alcotest.test_case "fifo ties" `Quick test_event_tie_break_fifo;
          Alcotest.test_case "chooser permutes ties" `Quick test_event_chooser_permutes_ties;
          Alcotest.test_case "insertion seq" `Quick test_event_seq_monotonic;
          Alcotest.test_case "cascade" `Quick test_event_cascade;
          Alcotest.test_case "past rejected" `Quick test_event_past_rejected;
          Alcotest.test_case "run_until" `Quick test_event_run_until;
          Alcotest.test_case "budget" `Quick test_event_budget;
          Alcotest.test_case "budget counts events" `Quick test_event_budget_exact;
          Alcotest.test_case "allocates nothing" `Quick test_event_queue_allocates_nothing;
        ] );
      ("ring", [ qcheck ring_matches_queue ]);
      ("netmodel", [ Alcotest.test_case "costs" `Quick test_netmodel_costs ]);
      ( "cluster",
        [
          Alcotest.test_case "topology" `Quick test_cluster_topology;
          Alcotest.test_case "nic serializes" `Quick test_cluster_nic_serializes;
        ] );
      ( "more-properties",
        [
          qcheck event_order_random;
          qcheck histogram_tracks_exact;
          qcheck event_queue_model;
          qcheck event_queue_model_chooser;
        ] );
      ( "channel",
        [
          Alcotest.test_case "delivers everything" `Quick test_channel_delivers_everything;
          Alcotest.test_case "same-node local" `Quick test_channel_same_node_is_local;
          Alcotest.test_case "threshold flush" `Quick test_channel_threshold_flush;
          Alcotest.test_case "no batching" `Quick test_channel_no_batching_packet_per_message;
          Alcotest.test_case "nlc combines" `Quick test_channel_nlc_combines;
          Alcotest.test_case "held counts both tiers" `Quick test_channel_held;
          qcheck channel_random_traffic;
        ]
        @ List.map qcheck channel_matches_model
        @ [
          Alcotest.test_case "allocation per message" `Quick test_channel_allocation;
          Alcotest.test_case "flooding a fresh channel" `Quick test_channel_flood_allocation;
          Alcotest.test_case "same-node hand-offs allocate nothing" `Quick
            test_channel_local_allocation;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters" `Quick test_metrics_counters;
          Alcotest.test_case "pp shows fired counters" `Quick test_metrics_pp_fired;
        ] );
    ]
