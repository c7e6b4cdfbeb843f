(* Reference interpreter: the semantic oracle.

   Executes a program directly on the graph with a single memo and a plain
   FIFO — no partitioning, no simulated time, no weights consulted. Phase
   p runs to quiescence, then the phase's aggregate (if any) finalizes and
   its continuation seeds phase p+1. Every distributed engine is tested to
   produce the same rows as this one on the deterministic query fragment
   (see test/test_engines.ml). *)

let run ?(common = Engine.Common.default) graph program =
  let obs = common.Engine.Common.obs in
  let check = common.Engine.Common.check in
  (* No cluster, no clock: deadline, seed and faults cannot apply here —
     the oracle is the fault-free semantic ground truth. *)
  (* The oracle has no simulated clock, so only operator stats are
     recorded (busy time stays zero); trace and flight need timestamps. *)
  let obs_on = Pstm_obs.Recorder.enabled obs in
  let opstats = Pstm_obs.Recorder.opstats obs in
  let memo = Memo.create () in
  let prng = Prng.create 1 in
  let qid = 0 in
  let rows = ref [] in
  let scan label =
    let out = Vec.create ~dummy:0 in
    (match label with
    | None -> Graph.iter_vertices graph (Vec.push out)
    | Some l -> Graph.iter_vertices_with_label graph l (Vec.push out));
    Vec.to_array out
  in
  let n_phases = Program.n_phases program in
  let queues = Array.init n_phases (fun _ -> Queue.create ()) in
  let push (t : Traverser.t) = Queue.add t queues.(Program.phase_of_step program t.step) in
  (* Sanitizer ledger (check mode): spawns stay inside their phase, so the
     weight seeded into a phase must resurface, exactly, as finished and
     row weights by the time the phase drains (Theorem 1, locally). *)
  let seeded = Array.make n_phases Weight.zero in
  let drained = Array.make n_phases Weight.zero in
  let seed (t : Traverser.t) =
    let p = Program.phase_of_step program t.step in
    seeded.(p) <- Weight.add seeded.(p) t.Traverser.weight;
    Pstm_obs.Opstats.seed opstats 1;
    push t
  in
  (* Seed the entry sources with one root traverser each. *)
  Array.iter
    (fun e ->
      seed
        (Traverser.make ~vertex:0 ~step:e ~weight:Weight.root
           ~n_registers:(Program.n_registers program)))
    (Program.entries program);
  for phase = 0 to n_phases - 1 do
    let queue = queues.(phase) in
    while not (Queue.is_empty queue) do
      let t = Queue.pop queue in
      let outcome = Exec.exec ~graph ~memo ~prng ~qid ~program ~scan t in
      if obs_on then
        Pstm_obs.Opstats.record opstats ~step:t.Traverser.step ~n:1
          ~out:(List.length outcome.Exec.spawns)
          ~rows:(List.length outcome.Exec.rows)
          ~finished:(not (Weight.is_zero outcome.Exec.finished))
          ~edges:outcome.Exec.edges_scanned ~memo_hits:outcome.Exec.memo_hits
          ~memo_misses:outcome.Exec.memo_misses ~busy_ns:0;
      if check then begin
        if not (Exec.conserves t outcome) then
          Engine.check_fail "local: step %d (%s) broke weight conservation" t.Traverser.step
            (Step.op_name (Program.step program t.Traverser.step).Step.op);
        drained.(phase) <-
          List.fold_left
            (fun acc (_, w) -> Weight.add acc w)
            (Weight.add drained.(phase) outcome.Exec.finished)
            outcome.Exec.rows
      end;
      List.iter push outcome.Exec.spawns;
      List.iter (fun (row, _w) -> rows := row :: !rows) outcome.Exec.rows
    done;
    if check && not (Weight.equal seeded.(phase) drained.(phase)) then
      Engine.check_fail "local: phase %d weight ledger broken: seeded %a, drained %a" phase
        Weight.pp seeded.(phase) Weight.pp drained.(phase);
    match Program.agg_of_phase program phase with
    | None -> ()
    | Some agg_step ->
      let step = Program.step program agg_step in
      let agg, reg =
        match step.Step.op with
        | Step.Aggregate { agg; reg } -> (agg, reg)
        | _ -> assert false
      in
      let partial =
        match Memo.partial_opt memo ~qid ~label:agg_step with
        | Some p -> p
        | None -> Aggregate.create agg (* no input traversers: empty aggregate *)
      in
      let value = Aggregate.finalize partial in
      let cont =
        Traverser.set_reg
          (Traverser.make ~vertex:0 ~step:step.Step.next ~weight:Weight.root
             ~n_registers:(Program.n_registers program))
          reg value
      in
      seed cont
  done;
  List.rev !rows
