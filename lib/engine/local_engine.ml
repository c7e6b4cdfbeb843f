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
     recorded (busy time stays zero); the trace needs timestamps. *)
  let obs_on = Pstm_obs.Recorder.enabled obs in
  let opstats = Pstm_obs.Recorder.opstats obs in
  let memo = Memo.create () in
  let prng = Prng.create 1 in
  let qid = 0 in
  let rows = ref [] in
  let sink = Exec.sink () in
  (* One partition that owns the whole graph. *)
  let scan = Exec.partition_scan graph (lazy (Array.init (Graph.n_vertices graph) Fun.id)) in
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
      Exec.clear sink;
      Exec.run sink ~graph ~memo ~prng ~qid ~program ~scan ~vertex:t.vertex ~step:t.step
        ~weight:t.weight ~regs:t.regs;
      if obs_on then
        Pstm_obs.Opstats.record opstats ~step:t.Traverser.step ~n:1
          ~out:(Travs.length sink.Exec.spawns) ~rows:(Vec.length sink.rows)
          ~finished:(not (Weight.is_zero sink.finished))
          ~edges:sink.edges_scanned ~memo_hits:sink.memo_hits ~memo_misses:sink.memo_misses
          ~busy_ns:0;
      if check then begin
        if not (Exec.conserves ~weight:t.weight sink) then
          Engine.check_fail "local: step %d (%s) broke weight conservation" t.Traverser.step
            (Step.op_name (Program.step program t.Traverser.step).Step.op);
        drained.(phase) <- Weight.add drained.(phase) (Weight.add sink.finished sink.row_weight)
      end;
      for i = 0 to Travs.length sink.spawns - 1 do
        push (Travs.get sink.spawns i)
      done;
      Vec.iter (fun row -> rows := row :: !rows) sink.rows
    done;
    if check && not (Weight.equal seeded.(phase) drained.(phase)) then
      Engine.check_fail "local: phase %d weight ledger broken: seeded %a, drained %a" phase
        Weight.pp seeded.(phase) Weight.pp drained.(phase);
    match Program.agg_of_phase program phase with
    | None -> ()
    | Some agg_step ->
      seed
        { Traverser.vertex = 0; step = (Program.step program agg_step).Step.next;
          weight = Weight.root;
          regs =
            Exec.continuation graph program ~agg_step (Memo.partial_opt memo ~qid ~label:agg_step) }
  done;
  List.rev !rows
