(* Bulk-synchronous-parallel engine — the execution model of the paper's
   TigerGraph baseline and the Fig. 8 "BSP execution" ablation.

   The same compiled programs and the same per-step semantics (Exec) run
   here, but orchestration is synchronous: a superstep lets every worker
   drain its local work (chaining same-worker successors, as real vertex-
   centric systems do), then all cross-worker traversers are exchanged in
   bulk and a global barrier closes the step. The two BSP pathologies the
   paper calls out emerge directly from this arithmetic:

   - stragglers: a superstep lasts as long as its slowest worker, so
     skewed frontiers leave most workers idle (Fig. 2b);
   - phase separation: computation and communication never overlap — the
     NIC is idle while CPUs run and vice versa.

   Multiple in-flight queries share supersteps; a query arriving between
   barriers waits for the next one, which is also faithful to synchronous
   engines. Timing is closed-form per superstep (max compute + bulk
   transfer + barrier), so only caller events sit in an event queue, and
   the service surface (submit/cancel/at) runs at barrier granularity: a
   caller event scheduled for time [t] fires at the first barrier whose
   clock is at or past [t], exactly like a query arriving between
   barriers. *)

(* The engine's own per-query state, beside the lifecycle's. *)
type ext = {
  mutable live : int; (* traversers of this query in frontiers *)
  mutable phase : int;
  mutable started : bool;
}

type task = {
  t_qid : int;
  trav : Traverser.t;
}

(* Two roles for this engine, matching the paper's evaluation:

   - [Ablation]: "BSP Execution" of Fig. 8 — GraphDance's own costs under
     synchronous orchestration, isolating the execution-model effect.
   - [Tigergraph_role]: the commercial-baseline stand-in — an interpreted
     GSQL-style engine re-dispatches every active query's plan at each
     superstep and runs markedly heavier per-step code. *)
type profile =
  | Ablation
  | Tigergraph_role

let profile_name = function Ablation -> "bsp-ablation" | Tigergraph_role -> "tigergraph-role"

let create ?(profile = Ablation) ?(common = Engine.Common.default) ~cluster_config ~graph () =
  let { Engine.Common.obs; check; deadline; _ } = common in
  (* Fault plane: only the schedule-driven faults apply here. The bulk
     exchange is closed-form (one reliable transfer per superstep, no
     per-packet events), so drop/duplicate/delay verdicts have nothing to
     attach to; stragglers scale a node's compute and a paused node
     stalls the barrier until its release — which is exactly the BSP
     pathology the paper highlights. *)
  let faults = Option.map Faults.create common.Engine.Common.faults in
  let cluster = Cluster.create cluster_config in
  let obs_on = Pstm_obs.Recorder.enabled obs in
  let trace = Pstm_obs.Recorder.trace obs in
  let opstats = Pstm_obs.Recorder.opstats obs in
  let metrics = Cluster.metrics cluster in
  let costs = Cluster.costs cluster in
  let net = Cluster.net cluster in
  let n_workers = Cluster.n_workers cluster in
  let n_nodes = Cluster.n_nodes cluster in
  let partition = Partition.create ~n_parts:n_workers ~n_vertices:(Graph.n_vertices graph) () in
  let prng = Prng.create 0x6c9 in
  let memos = Array.init n_workers (fun _ -> Memo.create ()) in
  let scans =
    Array.init n_workers (fun w -> Exec.partition_scan graph (lazy (Partition.members partition w)))
  in
  let frontier = Array.init n_workers (fun _ -> Queue.create ()) in
  let next_frontier = Array.init n_workers (fun _ -> Queue.create ()) in
  let clock = ref Sim_time.zero in
  (* Caller events (service layer arrivals / cancellations / timers) fire
     at barrier granularity, in (time, insertion) order. *)
  let timers = Event_queue.create () in
  let life =
    Lifecycle.create ~name:(profile_name profile) ~n_workers ~common
      ~now:(fun () -> !clock)
      ~schedule:(fun time f -> Event_queue.schedule_at timers ~time ~tag:0 f)
      ()
  in
  let fire_service () = Event_queue.run_until timers ~time:!clock in
  let route (q : ext Lifecycle.query) (trav : Traverser.t) =
    Exec.route ~graph ~partition ~coordinator:q.coordinator q.program ~vertex:trav.vertex
      ~step:trav.step ~regs:trav.regs
  in
  (* Scoped termination: the query stops consuming supersteps (its
     remaining frontier tasks are skipped on pop) and its memo entries
     are reclaimed immediately, so the end-of-run memo-emptiness
     invariant holds through mid-flight cancellation. *)
  let end_query q outcome =
    Lifecycle.end_query life q outcome (fun () ->
        Array.iter (fun memo -> Memo.clear_query memo q.Lifecycle.qid) memos)
  in
  let admit_pending () =
    Lifecycle.iter_live life (fun q ->
        if (not q.ext.started) && Sim_time.compare q.submitted !clock <= 0 then begin
          q.ext.started <- true;
          if obs_on then
            Pstm_obs.Trace.instant trace ~tid:(Engine.query_track q.qid) ~name:"submit"
              ~ts:q.submitted
              ~args:[ ("query", Pstm_obs.Trace.S (Program.name q.program)) ]
              ();
          Array.iter
            (fun entry ->
              let root =
                Traverser.make ~vertex:0 ~step:entry ~weight:Weight.root
                  ~n_registers:(Program.n_registers q.program)
              in
              match (Program.step q.program entry).Step.op with
              | Step.Scan _ ->
                Pstm_obs.Opstats.seed opstats n_workers;
                for w = 0 to n_workers - 1 do
                  Queue.add { t_qid = q.qid; trav = root } frontier.(w);
                  q.ext.live <- q.ext.live + 1
                done
              | _ ->
                Pstm_obs.Opstats.seed opstats 1;
                Queue.add { t_qid = q.qid; trav = root } frontier.(q.coordinator);
                q.ext.live <- q.ext.live + 1)
            (Program.entries q.program)
        end)
  in
  (* Per-query latency budgets expire at barrier granularity too: the
     first barrier past [submitted + deadline] cuts the query off. *)
  let expire_deadlines () =
    Lifecycle.iter_live life (fun q ->
        match q.deadline_at with
        | Some t when Sim_time.compare t !clock <= 0 ->
          end_query q Engine.Timed_out
        | _ -> ())
  in
  let next_wake () =
    let acc = ref None in
    let consider t =
      match !acc with None -> acc := Some t | Some t' -> acc := Some (min t t')
    in
    Lifecycle.iter_live life (fun q -> if not q.ext.started then consider q.submitted);
    Option.iter consider (Event_queue.next_time timers);
    !acc
  in
  let frontiers_empty () = Array.for_all Queue.is_empty frontier in
  (* One superstep. Returns unit; advances [clock]. *)
  (* Synchronous engines re-instantiate and re-schedule every active
     query's plan operators at each superstep; this per-superstep tax is
     what makes the TigerGraph-role baseline collapse under high issue
     rates (Figure 7, TCR 0.03). *)
  let interpretation_scale = match profile with Ablation -> 1 | Tigergraph_role -> 4 in
  let per_query_sched =
    match profile with
    | Ablation -> costs.Cluster.operator_sched
    | Tigergraph_role -> Sim_time.us 6
  in
  let scheduling_overhead () =
    let live_ops = ref 0 in
    let live_queries = ref 0 in
    Lifecycle.iter_live life (fun q ->
        if q.ext.started then begin
          live_ops := !live_ops + Program.n_steps q.program;
          incr live_queries
        end);
    match profile with
    | Ablation -> !live_ops * costs.Cluster.operator_sched
    | Tigergraph_role -> !live_queries * per_query_sched
  in
  let busy_total = Array.make n_workers Sim_time.zero in
  let superstep_idx = ref 0 in
  let sink = Exec.sink () in
  let superstep () =
    Metrics.(incr metrics Counter.supersteps);
    let clock0 = !clock in
    let msg_bytes = Array.make_matrix n_nodes n_nodes 0 in
    let compute = Array.make n_workers (scheduling_overhead ()) in
    for w = 0 to n_workers - 1 do
      let memo = memos.(w) in
      let elapsed = ref compute.(w) in
      while not (Queue.is_empty frontier.(w)) do
        let { t_qid; trav } = Queue.pop frontier.(w) in
        let q = Lifecycle.query life t_qid in
        q.ext.live <- q.ext.live - 1;
        (* Tasks of a cancelled / timed-out query die here: popped but
           not executed, so a terminated query consumes no more steps. *)
        if Lifecycle.is_live q then begin
          if obs_on && Bitset.add_if_absent q.touched w then
            Pstm_obs.Trace.instant trace ~tid:(Engine.query_track t_qid) ~name:"first_touch"
              ~ts:clock0
              ~args:[ ("worker", Pstm_obs.Trace.I w) ]
              ();
          Metrics.(incr metrics Counter.steps);
          Exec.clear sink;
          Exec.run sink ~graph ~memo ~prng ~qid:t_qid ~program:q.program ~scan:scans.(w)
            ~vertex:trav.vertex ~step:trav.step ~weight:trav.weight ~regs:trav.regs;
          if check && not (Exec.conserves ~weight:trav.weight sink) then
            Engine.check_fail "bsp: query %d step %d (%s) broke weight conservation" t_qid
              trav.Traverser.step
              (Step.op_name (Program.step q.program trav.Traverser.step).Step.op);
          Metrics.(add metrics Counter.edges_scanned sink.Exec.edges_scanned);
          let step_cost = interpretation_scale * Exec.cost costs sink in
          if obs_on then
            Pstm_obs.Opstats.record opstats ~step:trav.Traverser.step ~n:1
              ~out:(Travs.length sink.spawns) ~rows:(Vec.length sink.rows)
              ~finished:(not (Weight.is_zero sink.finished))
              ~edges:sink.edges_scanned ~memo_hits:sink.memo_hits
              ~memo_misses:sink.memo_misses ~busy_ns:(Sim_time.to_ns step_cost);
          elapsed := Sim_time.add !elapsed step_cost;
          for i = 0 to Travs.length sink.spawns - 1 do
            let child = Travs.get sink.spawns i in
            Metrics.(incr metrics Counter.spawned);
            q.ext.live <- q.ext.live + 1;
            let dst = route q child in
            if dst = w then
              (* Same worker: keep chaining inside this superstep. *)
              Queue.add { t_qid; trav = child } frontier.(w)
            else begin
              let bytes = 8 + Traverser.bytes child in
              Metrics.count_message metrics (Exec.msg_kind q.program child.step) bytes;
              let sn = Cluster.node_of_worker cluster w in
              let dn = Cluster.node_of_worker cluster dst in
              if sn = dn then Metrics.(incr metrics Counter.local_messages)
              else msg_bytes.(sn).(dn) <- msg_bytes.(sn).(dn) + bytes;
              Queue.add { t_qid; trav = child } next_frontier.(dst)
            end
          done;
          Vec.append ~into:q.rows sink.rows
        end
      done;
      compute.(w) <- !elapsed;
      if obs_on && Sim_time.compare !elapsed Sim_time.zero > 0 then
        Pstm_obs.Trace.span trace ~tid:w ~name:"compute" ~ts:clock0 ~dur:!elapsed
          ~args:[ ("superstep", Pstm_obs.Trace.I !superstep_idx) ]
          ();
      busy_total.(w) <- Sim_time.add busy_total.(w) !elapsed
    done;
    (* Superstep timing: barrier at max worker compute, then bulk exchange
       (computation and communication strictly separated). *)
    let node_compute = Array.make n_nodes Sim_time.zero in
    for w = 0 to n_workers - 1 do
      let node = Cluster.node_of_worker cluster w in
      node_compute.(node) <- max node_compute.(node) compute.(w)
    done;
    (match faults with
    | None -> ()
    | Some f ->
      (* A straggler node stretches its compute; a paused node cannot
         start until its window releases. Either way the barrier waits. *)
      for node = 0 to n_nodes - 1 do
        let stall = Sim_time.diff (Faults.release f ~node ~at:clock0) clock0 in
        node_compute.(node) <- Sim_time.add stall (Faults.scale f ~node node_compute.(node))
      done);
    let all_compute = Array.fold_left max Sim_time.zero node_compute in
    let comm_end = ref all_compute in
    for src = 0 to n_nodes - 1 do
      let serialization = ref Sim_time.zero in
      for dst = 0 to n_nodes - 1 do
        if msg_bytes.(src).(dst) > 0 then begin
          Metrics.(incr metrics Counter.packets);
          Metrics.(add metrics Counter.packet_bytes msg_bytes.(src).(dst));
          serialization :=
            Sim_time.add !serialization (Netmodel.nic_occupancy net ~bytes:msg_bytes.(src).(dst))
        end
      done;
      if Sim_time.compare !serialization Sim_time.zero > 0 then
        comm_end :=
          max !comm_end
            (Sim_time.add all_compute (Sim_time.add !serialization net.Netmodel.wire_latency))
    done;
    (* Barrier: every worker reports to the coordinator and is released —
       a gather/broadcast over the wire on top of the fixed sync cost. *)
    for _ = 1 to 2 * n_workers do
      Metrics.count_message metrics Metrics.Control_msg 16
    done;
    let barrier =
      Sim_time.add costs.Cluster.barrier (2 * net.Netmodel.wire_latency)
    in
    clock := Sim_time.add !clock (Sim_time.add !comm_end barrier);
    if obs_on then begin
      Pstm_obs.Trace.span trace ~cat:"sched" ~tid:Engine.superstep_track ~name:"superstep"
        ~ts:clock0
        ~dur:(Sim_time.diff !clock clock0)
        ~args:[ ("index", Pstm_obs.Trace.I !superstep_idx) ]
        ();
      (* The barrier tail of the superstep: everything past peak compute. *)
      Pstm_obs.Trace.span trace ~cat:"sched" ~tid:Engine.superstep_track ~name:"barrier"
        ~ts:(Sim_time.add clock0 all_compute)
        ~dur:(Sim_time.diff !clock (Sim_time.add clock0 all_compute))
        ~args:[ ("index", Pstm_obs.Trace.I !superstep_idx) ]
        ()
    end;
    incr superstep_idx;
    (* Swap frontiers. *)
    for w = 0 to n_workers - 1 do
      Queue.transfer next_frontier.(w) frontier.(w)
    done
  in
  (* Phase transitions happen at barriers: a query whose traversers all
     died either combines its pending aggregate or is complete. *)
  let handle_phase_boundaries () =
    Lifecycle.iter_live life (fun q ->
        if q.ext.started && q.ext.live = 0 then begin
          match Program.agg_of_phase q.program q.ext.phase with
          | Some agg_step ->
            let acc = ref None in
            Array.iter
              (fun memo ->
                Metrics.count_message metrics Metrics.Control_msg 16;
                match (Memo.partial_opt memo ~qid:q.qid ~label:agg_step, !acc) with
                | None, _ -> ()
                | Some p, None -> acc := Some p
                | Some p, Some into -> Aggregate.merge ~into p)
              memos;
            let cont =
              { Traverser.vertex = 0; step = (Program.step q.program agg_step).Step.next;
                weight = Weight.root; regs = Exec.continuation graph q.program ~agg_step !acc }
            in
            if obs_on then
              Pstm_obs.Trace.instant trace ~tid:(Engine.query_track q.qid) ~name:"phase_complete"
                ~ts:!clock
                ~args:[ ("phase", Pstm_obs.Trace.I q.ext.phase) ]
                ();
            Pstm_obs.Opstats.seed opstats 1;
            q.ext.phase <- q.ext.phase + 1;
            q.ext.live <- 1;
            Queue.add { t_qid = q.qid; trav = cont } frontier.(route q cont)
          | None -> end_query q (Engine.Completed !clock)
        end)
  in
  let submit s = (Lifecycle.submit life s { live = 0; phase = 0; started = false }).qid in
  let drive ~until =
    let stop = Lifecycle.stop life ~until in
    let past_stop () =
      match stop with None -> false | Some d -> Sim_time.compare !clock d > 0
    in
    let barrier () =
      fire_service ();
      admit_pending ();
      expire_deadlines ()
    in
    barrier ();
    let continue = ref true in
    while !continue do
      if past_stop () then continue := false
      else if not (frontiers_empty ()) then begin
        superstep ();
        barrier ();
        handle_phase_boundaries ()
      end
      else begin
        (* Idle: jump to the next query arrival or caller event. *)
        match next_wake () with
        | Some t when (match stop with None -> true | Some s -> Sim_time.compare t s <= 0) ->
          clock := max !clock t;
          barrier ();
          handle_phase_boundaries ()
        | _ -> continue := false
      end
    done
  in
  let finish () =
    (* A run cut short by the run-level deadline leaves queries
       unfinished: they report TIMEOUT with their memos reclaimed, the
       same graceful degradation as the async engine. *)
    let cut = deadline <> None in
    if cut then Lifecycle.sweep life;
    Lifecycle.check_end life "bsp" ~cut
      ~wedged:(fun q -> Fmt.str "live count wedged at %d" q.ext.live)
      memos;
    Lifecycle.report life ~makespan:!clock ~metrics
      ~events:Metrics.(get metrics Counter.supersteps)
      ~worker_busy:busy_total
  in
  Lifecycle.handle life ~submit ~terminate:end_query ~drive ~finish

let run ?profile ?common ~cluster_config ~graph (submissions : Engine.submission array) =
  Engine.run_via_start
    (fun ?common ~graph () -> create ?profile ?common ~cluster_config ~graph ())
    ?common ~graph submissions
