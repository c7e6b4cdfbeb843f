(* Frontier-batched execution of fusable step chains.

   The scalar interpreter ([Exec.run]) pays one dispatch per traverser
   per step. When many traversers are resident at the same (partition,
   step) — the common case for frontier-shaped traversals — the engine
   can instead run them as one batch: a maximal chain of side-effect-free
   steps (Expand / Filter / Set_reg) is executed breadth-first over the
   whole frontier, sweeping CSR adjacency ranges directly via
   {!Csr.slice} / {!Csr.target_at} and memoizing register-free filter
   verdicts per vertex in a bitset pair. The batch comes in as the
   group's traverser lanes ({!Travs}) and its leaves go out as lane
   words in the engine's sink, so no traverser record is built.

   Chains without a Set_reg (the hot case) run on a packed frontier: one
   int per element, parent batch index in the high bits and vertex in
   the low bits, so the whole sweep allocates nothing per element and
   every intermediate buffer is reused from the scratch across batches.
   Chains with a Set_reg fall back to a record frontier carrying a
   per-element register file.

   Weight handling is per-batch but exact: each parent's weight is split
   over its *surviving* leaves only (a parent with no survivors finishes
   its whole weight at the batch), so Theorem 1's conservation identity

     sum(parent weights) = sum(leaf weights) + rows + finished

   holds bit for bit — the async engine's [~check:true] sanitizer
   asserts it per executed group. The split uses different PRNG draws than
   the scalar order would, so batched runs are weight-*conserving* but
   not weight-*identical* to unbatched runs; results and invariants
   match, packet traces differ.

   Stateful ops (Dedup, Visit, Join, Aggregate), sources and Emit are
   never fused: their memo effects are order-sensitive per element and
   they stay on the scalar interpreter (the engine still amortizes their
   dispatch cost per batch). *)

(* Record frontier element, for Set_reg chains only. *)
type entry = { parent : int; vertex : int; regs : Value.t array }

let dummy_entry = { parent = 0; vertex = 0; regs = [||] }

(* Packed frontier element: parent batch index in the high bits, vertex
   in the low [vbits]. *)
let vbits = 31
let vmask = (1 lsl vbits) - 1

(* Reusable per-worker scratch: the bitset pair memoizing register-free
   predicate verdicts per vertex within one chain position ([undo] lists
   the touched vertices so the reset is proportional to the frontier,
   not |V|), plus every intermediate buffer, so steady-state batches of
   the packed path allocate nothing. *)
type scratch = {
  pred_seen : Bitset.t;
  pred_true : Bitset.t;
  undo : int Vec.t;
  packed_a : int Vec.t; (* packed frontier double-buffer *)
  packed_b : int Vec.t;
  entries_a : entry Vec.t; (* record frontier double-buffer *)
  entries_b : entry Vec.t;
  out_shares : Weight.t Vec.t; (* per-leaf weight shares, in leaf order *)
  mutable shares : Weight.t array; (* split buffer, grown as needed *)
}

let scratch ~graph =
  let n = Graph.n_vertices graph in
  {
    pred_seen = Bitset.create n;
    pred_true = Bitset.create n;
    undo = Vec.create ~dummy:0;
    packed_a = Vec.create ~dummy:0;
    packed_b = Vec.create ~dummy:0;
    entries_a = Vec.create ~dummy:dummy_entry;
    entries_b = Vec.create ~dummy:dummy_entry;
    out_shares = Vec.create ~dummy:Weight.zero;
    shares = Array.make 64 Weight.zero;
  }

let shares_buffer s n =
  if Array.length s.shares < n then
    s.shares <- Array.make (max n (2 * Array.length s.shares)) Weight.zero;
  s.shares

let reset_memo s =
  Vec.iter
    (fun v ->
      Bitset.remove s.pred_seen v;
      Bitset.remove s.pred_true v)
    s.undo;
  Vec.clear s.undo

(* A step op is fusable when it neither touches the partition memo nor
   produces rows: its only effects are spawning children and finishing
   weight, both of which the per-batch split reproduces exactly. *)
let fusable_op = function
  | Step.Expand _ | Step.Filter _ | Step.Set_reg _ -> true
  | Step.Index_lookup _ | Step.Scan _ | Step.Move_to _ | Step.Dedup _ | Step.Visit _
  | Step.Join _ | Step.Aggregate _ | Step.Emit _ ->
    false

let fusable program step = fusable_op (Program.step program step).Step.op

(* Maximal fusable chain starting at [step]: the run of fusable steps
   linked by [next]. Returns the chain (in execution order) and the exit
   step every surviving leaf lands on. Cycles cannot occur — [next]
   always moves forward through a validated program — but the loop is
   bounded by [n_steps] anyway. *)
let chain program step =
  let steps = ref [] in
  let count = ref 0 in
  let idx = ref step in
  let n = Program.n_steps program in
  let continue = ref true in
  while !continue && !count < n && !idx >= 0 && fusable program !idx do
    steps := !idx :: !steps;
    incr count;
    let next = (Program.step program !idx).Step.next in
    if next < 0 then continue := false else idx := next
  done;
  (List.rev !steps, !idx)

(* Split each parent's weight over its surviving leaves (a parent with
   none finishes its whole weight). The sweeps are order-preserving, so
   each parent's survivors form one contiguous run of [leaves] and
   parents appear in increasing order: one run-length walk writes the
   per-leaf shares (in leaf order) into the scratch's share vector with
   no per-parent allocation ([split_into] reuses one buffer). *)
let settle ~prng ~travs ~leaves_len ~s ~parent_at =
  Vec.clear s.out_shares;
  let finished = ref Weight.zero in
  let next_parent = ref 0 in
  let skip_until parent =
    while !next_parent < parent do
      finished := Weight.add !finished (Travs.weight travs !next_parent);
      incr next_parent
    done
  in
  let i = ref 0 in
  while !i < leaves_len do
    let parent = parent_at !i in
    skip_until parent;
    let j = ref (!i + 1) in
    while !j < leaves_len && parent_at !j = parent do
      incr j
    done;
    let n = !j - !i in
    let w = Travs.weight travs parent in
    if n = 1 then Vec.push s.out_shares w
    else begin
      let buf = shares_buffer s n in
      Weight.split_into prng w buf ~n;
      for k = 0 to n - 1 do
        Vec.push s.out_shares buf.(k)
      done
    end;
    next_parent := parent + 1;
    i := !j
  done;
  skip_until (Travs.length travs);
  !finished

(* The batch's weight and volume, added to the sink beside its leaves. *)
let report (sink : Exec.sink) ~finished ~edges ~reads =
  sink.finished <- Weight.add sink.finished finished;
  sink.edges_scanned <- sink.edges_scanned + edges;
  sink.prop_reads <- sink.prop_reads + reads

(* --- Packed fast path: chains without Set_reg ------------------------- *)

let run_packed ~graph ~scratch:s ~prng ~program ~chain_steps ~exit_step travs sink =
  let frontier = s.packed_a in
  Vec.clear frontier;
  for parent = 0 to Travs.length travs - 1 do
    Vec.push frontier ((parent lsl vbits) lor Travs.vertex travs parent)
  done;
  let edges = ref 0 in
  let reads = ref 0 in
  let current = ref frontier in
  let spare = ref s.packed_b in
  List.iter
    (fun idx ->
      let out = !spare in
      Vec.clear out;
      (match (Program.step program idx).Step.op with
      | Step.Expand { dir; edge_label } ->
        (* The scalar interpreter charges the full adjacency range even
           under a label restriction (every position is examined); the
           slice width matches that accounting. *)
        let scan csr pbits v =
          let lo, hi = Csr.slice csr v in
          edges := !edges + (hi - lo);
          match edge_label with
          | None ->
            for pos = lo to hi - 1 do
              Vec.push out (pbits lor Csr.target_at csr pos)
            done
          | Some l ->
            for pos = lo to hi - 1 do
              if Csr.label_at csr pos = l then Vec.push out (pbits lor Csr.target_at csr pos)
            done
        in
        Vec.iter
          (fun e ->
            let v = e land vmask in
            let pbits = e lxor v in
            match dir with
            | Graph.Out -> scan (Graph.out_csr graph) pbits v
            | Graph.In -> scan (Graph.in_csr graph) pbits v
            | Graph.Both ->
              scan (Graph.out_csr graph) pbits v;
              scan (Graph.in_csr graph) pbits v)
          !current
      | Step.Filter pred ->
        let reads_per_eval = Step.pred_prop_reads pred in
        (* Register-free predicates depend only on the vertex, so one
           verdict per distinct vertex serves the whole frontier. *)
        let memoizable = Step.max_reg_pred pred < 0 in
        Vec.iter
          (fun e ->
            let v = e land vmask in
            let verdict =
              if memoizable && Bitset.mem s.pred_seen v then Bitset.mem s.pred_true v
              else begin
                reads := !reads + reads_per_eval;
                let regs = Travs.regs travs (e lsr vbits) in
                let r = Step.eval_pred graph ~vertex:v ~regs pred in
                if memoizable then begin
                  Bitset.add s.pred_seen v;
                  if r then Bitset.add s.pred_true v;
                  Vec.push s.undo v
                end;
                r
              end
            in
            if verdict then Vec.push out e)
          !current;
        if memoizable then reset_memo s
      | _ -> assert false);
      spare := !current;
      current := out)
    chain_steps;
  let leaves = !current in
  let finished =
    settle ~prng ~travs ~leaves_len:(Vec.length leaves) ~s
      ~parent_at:(fun i -> Vec.get leaves i lsr vbits)
  in
  for i = 0 to Vec.length leaves - 1 do
    let e = Vec.get leaves i in
    let parent = e lsr vbits in
    Exec.spawn sink ~parent:(Travs.vertex travs parent) ~vertex:(e land vmask) ~step:exit_step
      ~weight:(Vec.get s.out_shares i) ~regs:(Travs.regs travs parent)
  done;
  report sink ~finished ~edges:!edges ~reads:!reads

(* --- Record path: chains containing Set_reg --------------------------- *)

let run_entries ~graph ~scratch:s ~prng ~program ~chain_steps ~exit_step travs sink =
  let frontier = s.entries_a in
  Vec.clear frontier;
  for parent = 0 to Travs.length travs - 1 do
    Vec.push frontier
      { parent; vertex = Travs.vertex travs parent; regs = Travs.regs travs parent }
  done;
  let edges = ref 0 in
  let reads = ref 0 in
  let current = ref frontier in
  let spare = ref s.entries_b in
  List.iter
    (fun idx ->
      let out = !spare in
      Vec.clear out;
      (match (Program.step program idx).Step.op with
      | Step.Expand { dir; edge_label } ->
        let scan csr e =
          let lo, hi = Csr.slice csr e.vertex in
          edges := !edges + (hi - lo);
          Csr.fold_neighbors_range csr ?label:edge_label ~lo ~hi ~init:() ~f:(fun () ~pos ->
              Vec.push out { e with vertex = Csr.target_at csr pos })
        in
        Vec.iter
          (fun e ->
            match dir with
            | Graph.Out -> scan (Graph.out_csr graph) e
            | Graph.In -> scan (Graph.in_csr graph) e
            | Graph.Both ->
              scan (Graph.out_csr graph) e;
              scan (Graph.in_csr graph) e)
          !current
      | Step.Filter pred ->
        let reads_per_eval = Step.pred_prop_reads pred in
        let memoizable = Step.max_reg_pred pred < 0 in
        Vec.iter
          (fun e ->
            let verdict =
              if memoizable && Bitset.mem s.pred_seen e.vertex then Bitset.mem s.pred_true e.vertex
              else begin
                reads := !reads + reads_per_eval;
                let r = Step.eval_pred graph ~vertex:e.vertex ~regs:e.regs pred in
                if memoizable then begin
                  Bitset.add s.pred_seen e.vertex;
                  if r then Bitset.add s.pred_true e.vertex;
                  Vec.push s.undo e.vertex
                end;
                r
              end
            in
            if verdict then Vec.push out e)
          !current;
        if memoizable then reset_memo s
      | Step.Set_reg { reg; expr } ->
        let reads_per_eval = Step.expr_prop_reads expr in
        Vec.iter
          (fun e ->
            reads := !reads + reads_per_eval;
            let value = Step.eval_expr graph ~vertex:e.vertex ~regs:e.regs expr in
            let regs = Array.copy e.regs in
            regs.(reg) <- value;
            Vec.push out { e with regs })
          !current
      | _ -> assert false);
      spare := !current;
      current := out)
    chain_steps;
  let leaves = !current in
  let finished =
    settle ~prng ~travs ~leaves_len:(Vec.length leaves) ~s
      ~parent_at:(fun i -> (Vec.get leaves i).parent)
  in
  for i = 0 to Vec.length leaves - 1 do
    let e = Vec.get leaves i in
    Exec.spawn sink ~parent:(Travs.vertex travs e.parent) ~vertex:e.vertex ~step:exit_step
      ~weight:(Vec.get s.out_shares i) ~regs:e.regs
  done;
  report sink ~finished ~edges:!edges ~reads:!reads

(* Execute the fusable chain rooted at [step] over the whole batch.
   [travs] must all sit at [step]. *)
let run ~graph ~scratch ~prng ~program ~step travs sink =
  let chain_steps, exit_step = chain program step in
  assert (chain_steps <> []);
  let has_set_reg =
    List.exists
      (fun i -> match (Program.step program i).Step.op with Step.Set_reg _ -> true | _ -> false)
      chain_steps
  in
  if has_set_reg || Graph.n_vertices graph > vmask then
    run_entries ~graph ~scratch ~prng ~program ~chain_steps ~exit_step travs sink
  else run_packed ~graph ~scratch ~prng ~program ~chain_steps ~exit_step travs sink
