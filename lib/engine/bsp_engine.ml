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
   transfer + barrier), so no event queue is needed — which means the
   service surface (submit/cancel/at) runs at barrier granularity: a
   caller event scheduled for time [t] fires at the first barrier whose
   clock is past [t], exactly like a query arriving between barriers. *)

type query_state = {
  qid : int;
  program : Program.t;
  coordinator : int;
  tenant : int;
  priority : int;
  submitted : Sim_time.t;
  deadline_at : Sim_time.t option; (* absolute: submitted + per-query budget *)
  mutable outcome : Engine.outcome option;
  mutable live : int; (* traversers of this query in frontiers *)
  mutable phase : int;
  rows : Value.t array Vec.t;
  mutable started : bool;
  touched : Bitset.t; (* workers that executed a traverser (first-touch) *)
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
  let obs = common.Engine.Common.obs in
  let check = common.Engine.Common.check in
  let deadline = common.Engine.Common.deadline in
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
  let flight = Pstm_obs.Recorder.flight obs in
  let opstats = Pstm_obs.Recorder.opstats obs in
  let metrics = Cluster.metrics cluster in
  let costs = Cluster.costs cluster in
  let net = Cluster.net cluster in
  let n_workers = Cluster.n_workers cluster in
  let n_nodes = Cluster.n_nodes cluster in
  let partition = Partition.create ~n_parts:n_workers ~n_vertices:(Graph.n_vertices graph) () in
  let prng = Prng.create 0x6c9 in
  let memos = Array.init n_workers (fun _ -> Memo.create ()) in
  let members = Array.init n_workers (fun w -> lazy (Partition.members partition w)) in
  let frontier = Array.init n_workers (fun _ -> Queue.create ()) in
  let next_frontier = Array.init n_workers (fun _ -> Queue.create ()) in
  let queries : (int, query_state) Hashtbl.t = Hashtbl.create 64 in
  let next_qid = ref 0 in
  let query qid =
    match Hashtbl.find_opt queries qid with
    | Some q -> q
    | None -> Fmt.invalid_arg "bsp: unknown query %d" qid
  in
  let iter_queries f =
    for qid = 0 to !next_qid - 1 do
      f (query qid)
    done
  in
  let on_terminal : (int -> Engine.outcome -> unit) ref = ref (fun _ _ -> ()) in
  let fl_frontier =
    Array.init n_workers (fun i -> Pstm_obs.Flight.series flight (Printf.sprintf "worker%d.queue" i))
  in
  let fl_memo =
    Array.init n_workers (fun i -> Pstm_obs.Flight.series flight (Printf.sprintf "worker%d.memo" i))
  in
  let fl_live = Pstm_obs.Flight.series flight "inflight" in
  let clock = ref Sim_time.zero in
  (* Caller events (service layer arrivals / cancellations / timers),
     kept sorted by (time, insertion seq) for determinism and fired at
     barrier granularity. *)
  let sv_seq = ref 0 in
  let sv_events : (Sim_time.t * int * (unit -> unit)) list ref = ref [] in
  let sv_add t f =
    let t = max t !clock in
    let e = (t, !sv_seq, f) in
    incr sv_seq;
    let rec ins = function
      | [] -> [ e ]
      | ((t', _, _) as hd) :: tl ->
        if Sim_time.compare t t' < 0 then e :: hd :: tl else hd :: ins tl
    in
    sv_events := ins !sv_events
  in
  let fire_service () =
    let rec go () =
      match !sv_events with
      | (t, _, f) :: tl when Sim_time.compare t !clock <= 0 ->
        sv_events := tl;
        f ();
        go ()
      | _ -> ()
    in
    go ()
  in
  let route q (trav : Traverser.t) =
    let step = Program.step q.program trav.step in
    match Step.routing step.Step.op with
    | Step.By_coordinator -> q.coordinator
    | Step.By_vertex -> Partition.owner partition trav.vertex
    | Step.By_key e -> begin
      match Step.eval_expr graph ~vertex:trav.vertex ~regs:trav.regs e with
      | Value.Vertex v -> Partition.owner partition v
      | v -> Value.hash v mod n_workers
    end
  in
  (* Scoped termination: the query stops consuming supersteps (its
     remaining frontier tasks are skipped on pop) and its memo entries
     are reclaimed immediately, so the end-of-run memo-emptiness
     invariant holds through mid-flight cancellation. *)
  let terminate qid outcome =
    let q = query qid in
    if q.outcome = None then begin
      q.outcome <- Some outcome;
      Array.iter (fun memo -> Memo.clear_query memo qid) memos;
      if obs_on then
        Pstm_obs.Trace.instant trace ~tid:(Engine.query_track qid)
          ~name:(Engine.outcome_name outcome) ~ts:!clock ();
      !on_terminal qid outcome
    end
  in
  let admit_pending () =
    iter_queries (fun q ->
        if (not q.started) && q.outcome = None && Sim_time.compare q.submitted !clock <= 0
        then begin
          q.started <- true;
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
                  q.live <- q.live + 1
                done
              | _ ->
                Pstm_obs.Opstats.seed opstats 1;
                Queue.add { t_qid = q.qid; trav = root } frontier.(q.coordinator);
                q.live <- q.live + 1)
            (Program.entries q.program)
        end)
  in
  (* Per-query latency budgets expire at barrier granularity too: the
     first barrier past [submitted + deadline] cuts the query off. *)
  let expire_deadlines () =
    iter_queries (fun q ->
        match q.deadline_at with
        | Some t when q.outcome = None && Sim_time.compare t !clock <= 0 ->
          terminate q.qid Engine.Timed_out
        | _ -> ())
  in
  let next_wake () =
    let acc = ref None in
    let consider t =
      match !acc with None -> acc := Some t | Some t' -> acc := Some (min t t')
    in
    iter_queries (fun q -> if (not q.started) && q.outcome = None then consider q.submitted);
    (match !sv_events with [] -> () | (t, _, _) :: _ -> consider t);
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
    iter_queries (fun q ->
        if q.started && q.outcome = None then begin
          live_ops := !live_ops + Program.n_steps q.program;
          incr live_queries
        end);
    match profile with
    | Ablation -> !live_ops * costs.Cluster.operator_sched
    | Tigergraph_role -> !live_queries * per_query_sched
  in
  let busy_total = Array.make n_workers Sim_time.zero in
  let superstep_idx = ref 0 in
  let superstep () =
    Metrics.count_superstep metrics;
    let clock0 = !clock in
    if obs_on then begin
      let live = ref 0 in
      iter_queries (fun q -> live := !live + q.live);
      Pstm_obs.Flight.sample flight fl_live ~time:clock0 (float_of_int !live);
      for w = 0 to n_workers - 1 do
        Pstm_obs.Flight.sample flight fl_frontier.(w) ~time:clock0
          (float_of_int (Queue.length frontier.(w)));
        Pstm_obs.Flight.sample flight fl_memo.(w) ~time:clock0
          (float_of_int (Memo.live_entries memos.(w)))
      done
    end;
    let msg_bytes = Array.make_matrix n_nodes n_nodes 0 in
    let compute = Array.make n_workers (scheduling_overhead ()) in
    for w = 0 to n_workers - 1 do
      let memo = memos.(w) in
      let scan label =
        let mine = Lazy.force members.(w) in
        match label with
        | None -> mine
        | Some l -> Array.of_seq (Seq.filter (Graph.has_vertex_label graph ~label:l) (Array.to_seq mine))
      in
      let elapsed = ref compute.(w) in
      while not (Queue.is_empty frontier.(w)) do
        let { t_qid; trav } = Queue.pop frontier.(w) in
        let q = query t_qid in
        q.live <- q.live - 1;
        (* Tasks of a cancelled / timed-out query die here: popped but
           not executed, so a terminated query consumes no more steps. *)
        if q.outcome = None then begin
          if obs_on && Bitset.add_if_absent q.touched w then
            Pstm_obs.Trace.instant trace ~tid:(Engine.query_track t_qid) ~name:"first_touch"
              ~ts:clock0
              ~args:[ ("worker", Pstm_obs.Trace.I w) ]
              ();
          Metrics.count_step metrics;
          let outcome = Exec.exec ~graph ~memo ~prng ~qid:t_qid ~program:q.program ~scan trav in
          if check && not (Exec.conserves trav outcome) then
            Engine.check_fail "bsp: query %d step %d (%s) broke weight conservation" t_qid
              trav.Traverser.step
              (Step.op_name (Program.step q.program trav.Traverser.step).Step.op);
          Metrics.count_edges metrics outcome.Exec.edges_scanned;
          let step_cost = interpretation_scale * Exec.cost costs outcome in
          if obs_on then
            Pstm_obs.Opstats.record opstats ~step:trav.Traverser.step ~n:1
              ~out:(List.length outcome.Exec.spawns)
              ~rows:(List.length outcome.Exec.rows)
              ~finished:(not (Weight.is_zero outcome.Exec.finished))
              ~edges:outcome.Exec.edges_scanned ~memo_hits:outcome.Exec.memo_hits
              ~memo_misses:outcome.Exec.memo_misses ~busy_ns:(Sim_time.to_ns step_cost);
          elapsed := Sim_time.add !elapsed step_cost;
          List.iter
            (fun child ->
              Metrics.count_spawn metrics;
              q.live <- q.live + 1;
              let dst = route q child in
              if dst = w then
                (* Same worker: keep chaining inside this superstep. *)
                Queue.add { t_qid; trav = child } frontier.(w)
              else begin
                let kind =
                  match (Program.step q.program child.Traverser.step).Step.op with
                  | Step.Emit _ -> Metrics.Result_msg
                  | _ -> Metrics.Traverser_msg
                in
                let bytes = 8 + Traverser.bytes child in
                Metrics.count_message metrics kind bytes;
                let sn = Cluster.node_of_worker cluster w in
                let dn = Cluster.node_of_worker cluster dst in
                if sn = dn then Metrics.count_local_message metrics
                else msg_bytes.(sn).(dn) <- msg_bytes.(sn).(dn) + bytes;
                Queue.add { t_qid; trav = child } next_frontier.(dst)
              end)
            outcome.Exec.spawns;
          List.iter (fun (row, _weight) -> Vec.push q.rows row) outcome.Exec.rows
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
          Metrics.count_packet metrics msg_bytes.(src).(dst);
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
    iter_queries (fun q ->
        if q.started && q.outcome = None && q.live = 0 then begin
          match Program.agg_of_phase q.program q.phase with
          | Some agg_step ->
            let step = Program.step q.program agg_step in
            let agg, reg =
              match step.Step.op with
              | Step.Aggregate { agg; reg } -> (agg, reg)
              | _ -> assert false
            in
            let acc = Aggregate.create agg in
            Array.iter
              (fun memo ->
                Metrics.count_message metrics Metrics.Control_msg 16;
                match Memo.partial_opt memo ~qid:q.qid ~label:agg_step with
                | Some p -> Aggregate.merge ~into:acc p
                | None -> ())
              memos;
            let cont =
              Traverser.set_reg
                (Traverser.make ~vertex:0 ~step:step.Step.next ~weight:Weight.root
                   ~n_registers:(Program.n_registers q.program))
                reg (Aggregate.finalize acc)
            in
            if obs_on then
              Pstm_obs.Trace.instant trace ~tid:(Engine.query_track q.qid) ~name:"phase_complete"
                ~ts:!clock
                ~args:[ ("phase", Pstm_obs.Trace.I q.phase) ]
                ();
            Pstm_obs.Opstats.seed opstats 1;
            q.phase <- q.phase + 1;
            q.live <- 1;
            Queue.add { t_qid = q.qid; trav = cont } frontier.(route q cont)
          | None ->
            q.outcome <- Some (Engine.Completed !clock);
            if obs_on then
              Pstm_obs.Trace.instant trace ~tid:(Engine.query_track q.qid) ~name:"complete"
                ~ts:!clock
                ~args:
                  [
                    ("rows", Pstm_obs.Trace.I (Vec.length q.rows));
                    ("workers_touched", Pstm_obs.Trace.I (Bitset.count q.touched));
                  ]
                ();
            Array.iter (fun memo -> Memo.clear_query memo q.qid) memos;
            !on_terminal q.qid (Engine.Completed !clock)
        end)
  in
  let submit_sub (s : Engine.submission) =
    let qid = !next_qid in
    incr next_qid;
    Hashtbl.add queries qid
      {
        qid;
        program = s.Engine.program;
        coordinator = qid mod n_workers;
        tenant = s.Engine.tenant;
        priority = s.Engine.priority;
        submitted = s.Engine.at;
        deadline_at = Option.map (fun d -> Sim_time.add s.Engine.at d) s.Engine.deadline;
        outcome = None;
        live = 0;
        phase = 0;
        rows = Vec.create ~dummy:[||];
        started = false;
        touched = Bitset.create n_workers;
      };
    qid
  in
  let drive ~until =
    let stop =
      match (until, deadline) with
      | None, None -> None
      | (None, Some t | Some t, None) -> Some t
      | Some t, Some d -> Some (min t d)
    in
    let past_stop () =
      match stop with None -> false | Some d -> Sim_time.compare !clock d > 0
    in
    fire_service ();
    admit_pending ();
    expire_deadlines ();
    let continue = ref true in
    while !continue do
      if past_stop () then continue := false
      else if not (frontiers_empty ()) then begin
        superstep ();
        fire_service ();
        admit_pending ();
        expire_deadlines ();
        handle_phase_boundaries ()
      end
      else begin
        (* Idle: jump to the next query arrival or caller event. *)
        match next_wake () with
        | Some t when (match stop with None -> true | Some s -> Sim_time.compare t s <= 0) ->
          clock := max !clock t;
          fire_service ();
          admit_pending ();
          expire_deadlines ();
          handle_phase_boundaries ()
        | _ -> continue := false
      end
    done
  in
  let finish () =
    (* A run cut short by the run-level deadline leaves queries
       unfinished: they report TIMEOUT with their memos reclaimed, the
       same graceful degradation as the async engine. *)
    if deadline <> None then
      iter_queries (fun q ->
          if q.outcome = None then begin
            q.outcome <- Some Engine.Timed_out;
            Array.iter (fun memo -> Memo.clear_query memo q.qid) memos;
            !on_terminal q.qid Engine.Timed_out
          end);
    (* Sanitizer post-conditions (only when the run was not deadline-cut):
       every query reached a terminal outcome, and query-scoped memos
       were cleared at each terminal transition. *)
    if check && deadline = None then begin
      iter_queries (fun q ->
          if q.outcome = None then
            Engine.check_fail "bsp: query %d never terminated (live count wedged at %d)" q.qid
              q.live);
      Array.iteri
        (fun w memo ->
          let n = Memo.live_entries memo in
          if n > 0 then
            Engine.check_fail "bsp: worker %d holds %d memo entries after all queries completed"
              w n)
        memos
    end;
    (* Surface ring truncation: a trace that silently dropped events would
       otherwise read as a complete record. *)
    if obs_on then Metrics.set_trace_dropped metrics (Pstm_obs.Trace.dropped trace);
    let reports =
      Array.init !next_qid (fun qid ->
          let q = query qid in
          {
            Engine.qid = q.qid;
            name = Program.name q.program;
            tenant = q.tenant;
            priority = q.priority;
            submitted = q.submitted;
            outcome = (match q.outcome with Some o -> o | None -> Engine.Timed_out);
            rows = Vec.to_list q.rows;
          })
    in
    {
      Engine.engine = profile_name profile;
      queries = reports;
      makespan = !clock;
      metrics;
      events = Metrics.supersteps metrics;
      worker_busy = busy_total;
    }
  in
  {
    Engine.sh_name = profile_name profile;
    sh_submit = submit_sub;
    sh_cancel = (fun ~qid ~at -> sv_add at (fun () -> terminate qid Engine.Cancelled));
    sh_at = sv_add;
    sh_now = (fun () -> !clock);
    sh_on_terminal = (fun f -> on_terminal := f);
    sh_drive = drive;
    sh_finish = finish;
  }

let start ?profile ?common ~cluster_config ~graph () =
  create ?profile ?common ~cluster_config ~graph ()

let run ?profile ?common ~cluster_config ~graph (submissions : Engine.submission array) =
  Engine.run_via_start
    (fun ?common ~graph () -> create ?profile ?common ~cluster_config ~graph ())
    ?common ~graph submissions
