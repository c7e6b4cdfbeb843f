(* Frontier-batched execution of fusable step chains.

   The scalar interpreter ([Exec.run]) pays one dispatch per traverser
   per step. When many traversers are resident at the same (partition,
   step) — the common case for frontier-shaped traversals — the engine
   can instead run them as one batch: a maximal chain of Expand / Filter
   steps is executed breadth-first over the whole frontier, sweeping CSR
   adjacency ranges directly via {!Csr.offset} / {!Csr.target_at} and
   memoizing register-free filter verdicts per vertex in a bitset pair.
   The batch comes in as the group's traverser lanes ({!Travs}) and its
   leaves go out as lane words in the engine's sink, so no traverser
   record is built.

   Each chain is computed once per (program, step) by {!Program.make}
   ({!Program.chain}); running it is a set of plain loops, with no
   closure and no ref that escapes. Neither fusable op writes a
   register, so a leaf carries its parent's register file and the
   frontier is one packed int per element. Every frontier and share
   buffer lives in the worker's scratch and is reused across batches, so
   once the buffers have grown a batch allocates nothing.

   Weight handling is per-batch but exact: each parent's weight is split
   over its *surviving* leaves only (a parent with no survivors finishes
   its whole weight at the batch), so Theorem 1's conservation identity

     sum(parent weights) = sum(leaf weights) + rows + finished

   holds bit for bit — the async engine's [~check:true] sanitizer
   asserts it per executed group. The split uses different PRNG draws than
   the scalar order would, so batched runs are weight-*conserving* but
   not weight-*identical* to unbatched runs; results and invariants
   match, packet traces differ.

   Set_reg and the stateful ops (Dedup, Visit, Join, Aggregate), sources
   and Emit are never fused: they stay on the scalar interpreter (the
   engine still amortizes their dispatch cost per batch). *)

(* Packed frontier element: the parent's index in the batch in the high
   bits and the vertex in the low [vbits]. Vertex ids range over
   [0, vmask) and parent indices over [0, 2^31); a graph with more than
   [vmask] vertices runs its chains on the scalar interpreter
   ({!fusable}). *)
let vbits = 31
let vmask = (1 lsl vbits) - 1

(* Reusable per-worker scratch: the bitset pair memoizing register-free
   predicate verdicts per vertex within one chain position ([undo] lists
   the touched vertices so the reset is proportional to the frontier,
   not |V|), plus every frontier and share buffer. *)
type scratch = {
  pred_seen : Bitset.t;
  pred_true : Bitset.t;
  undo : int Vec.t;
  packed_a : int Vec.t; (* packed frontier double-buffer *)
  packed_b : int Vec.t;
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
    out_shares = Vec.create ~dummy:Weight.zero;
    shares = Array.make 64 Weight.zero;
  }

let shares_buffer s n =
  if Array.length s.shares < n then
    s.shares <- Array.make (max n (2 * Array.length s.shares)) Weight.zero;
  s.shares

let reset_memo s =
  for i = 0 to Vec.length s.undo - 1 do
    let v = Vec.get s.undo i in
    Bitset.remove s.pred_seen v;
    Bitset.remove s.pred_true v
  done;
  Vec.clear s.undo

(* A step roots a chain when its own op is fusable ({!Step.fusable}) and
   every vertex id of the graph fits a packed element. *)
let fusable ~graph program step =
  Graph.n_vertices graph <= vmask && Array.length (Program.chain program step) > 0

(* Split each parent's weight over its surviving leaves (a parent with
   none finishes its whole weight). The sweeps are order-preserving, so
   each parent's survivors form one contiguous run of [leaves] and
   parents appear in increasing order: one run-length walk writes the
   per-leaf shares (in leaf order) into the scratch's share vector with
   no per-parent allocation ([split_into] reuses one buffer). Leaf [i]'s
   parent is [Vec.get leaves i lsr vbits]. Returns the finished weight. *)
let settle s ~prng ~travs ~leaves =
  Vec.clear s.out_shares;
  let n_leaves = Vec.length leaves in
  let finished = ref Weight.zero in
  let next_parent = ref 0 in
  let i = ref 0 in
  while !i < n_leaves do
    let parent = Vec.get leaves !i lsr vbits in
    while !next_parent < parent do
      finished := Weight.add !finished (Travs.weight travs !next_parent);
      incr next_parent
    done;
    let j = ref (!i + 1) in
    while !j < n_leaves && Vec.get leaves !j lsr vbits = parent do
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
  for p = !next_parent to Travs.length travs - 1 do
    finished := Weight.add !finished (Travs.weight travs p)
  done;
  !finished

(* A register-free predicate's verdict on [v], memoized per vertex in the
   scratch's bitsets. *)
let memo_verdict s graph ~vertex ~regs pred =
  let r = Step.eval_pred graph ~vertex ~regs pred in
  Bitset.add s.pred_seen vertex;
  if r then Bitset.add s.pred_true vertex;
  Vec.push s.undo vertex;
  r

(* Push every target of [v]'s adjacency slice in [csr] (those with the
   edge label, if any) onto [out] with parent bits [pbits]. The scalar
   interpreter charges the full adjacency range even under a label
   restriction (every position is examined); the returned slice width
   matches that accounting. *)
let expand_packed out csr edge_label pbits v =
  let lo = Csr.offset csr v and hi = Csr.offset csr (v + 1) in
  (match edge_label with
  | None ->
    for pos = lo to hi - 1 do
      Vec.push out (pbits lor Csr.target_at csr pos)
    done
  | Some l ->
    for pos = lo to hi - 1 do
      if Csr.label_at csr pos = l then Vec.push out (pbits lor Csr.target_at csr pos)
    done);
  hi - lo

(* Execute the fusable chain rooted at [step] over the whole batch.
   [travs] must all sit at [step]. *)
let run ~graph ~scratch:s ~prng ~program ~step travs (sink : Exec.sink) =
  assert (fusable ~graph program step);
  let chain = Program.chain program step and exit_step = Program.chain_exit program step in
  let current = ref s.packed_a and spare = ref s.packed_b in
  Vec.clear !current;
  for parent = 0 to Travs.length travs - 1 do
    Vec.push !current ((parent lsl vbits) lor Travs.vertex travs parent)
  done;
  let edges = ref 0 and reads = ref 0 in
  for c = 0 to Array.length chain - 1 do
    let inp = !current and out = !spare in
    Vec.clear out;
    (match (Program.step program chain.(c)).Step.op with
    | Step.Expand { dir; edge_label } ->
      for k = 0 to Vec.length inp - 1 do
        let e = Vec.get inp k in
        let v = e land vmask in
        let pbits = e lxor v in
        match dir with
        | Graph.Out -> edges := !edges + expand_packed out (Graph.out_csr graph) edge_label pbits v
        | Graph.In -> edges := !edges + expand_packed out (Graph.in_csr graph) edge_label pbits v
        | Graph.Both ->
          edges := !edges + expand_packed out (Graph.out_csr graph) edge_label pbits v;
          edges := !edges + expand_packed out (Graph.in_csr graph) edge_label pbits v
      done
    | Step.Filter pred ->
      let reads_per_eval = Step.pred_prop_reads pred in
      (* Register-free predicates depend only on the vertex, so one
         verdict per distinct vertex serves the whole frontier. *)
      let memoizable = Step.max_reg_pred pred < 0 in
      for k = 0 to Vec.length inp - 1 do
        let e = Vec.get inp k in
        let v = e land vmask in
        let verdict =
          if memoizable && Bitset.mem s.pred_seen v then Bitset.mem s.pred_true v
          else begin
            reads := !reads + reads_per_eval;
            let regs = Travs.regs travs (e lsr vbits) in
            if memoizable then memo_verdict s graph ~vertex:v ~regs pred
            else Step.eval_pred graph ~vertex:v ~regs pred
          end
        in
        if verdict then Vec.push out e
      done;
      if memoizable then reset_memo s
    | _ -> assert false);
    spare := inp;
    current := out
  done;
  let leaves = !current in
  let finished = settle s ~prng ~travs ~leaves in
  for i = 0 to Vec.length leaves - 1 do
    let e = Vec.get leaves i in
    let parent = e lsr vbits in
    Exec.spawn sink ~parent:(Travs.vertex travs parent) ~vertex:(e land vmask) ~step:exit_step
      ~weight:(Vec.get s.out_shares i) ~regs:(Travs.regs travs parent)
  done;
  sink.finished <- Weight.add sink.finished finished;
  sink.edges_scanned <- sink.edges_scanned + !edges;
  sink.prop_reads <- sink.prop_reads + !reads
