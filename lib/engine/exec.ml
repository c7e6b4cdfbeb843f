(* Single-step interpreter shared by all engines.

   [run] runs one traverser through one step, mutating only the supplied
   partition memo, and writes what happened into a caller-owned [sink]:
   children to route, result rows, the weight that terminated here and
   the data / memo volume. Engines differ in *where* and *when* they call
   this — the async engine routes children through the simulated
   cluster, the BSP engine between supersteps, the local reference engine
   on a plain queue — but the semantics (and hence the query answers) are
   defined once, here.

   A traverser comes in as its four fields and its children go out as
   four lane words each ({!Travs}), so no traverser record is built on
   this path. The sink accumulates across calls until [clear], so an
   engine that runs a group of traversers reads the group's sums. The
   expand targets and the weight shares go through scratch buffers the
   sink keeps, so once its lanes have grown a call allocates only the
   register files its children write (plus what the memo and graph
   lookups do); a child that writes no register shares its parent's.

   Weight conservation invariant (property-tested in the suite), per
   call:

     weight = sum of spawned weights + sum of row weights + finished. *)

type scratch = {
  targets : int Vec.t; (* a source / expand step's child vertices *)
  mutable shares : Weight.t array; (* one weight share per child *)
  push_target : target:int -> edge_id:int -> label:int -> unit;
}

type sink = {
  spawns : Travs.t;
  parents : int Vec.t;
  rows : Value.t array Vec.t;
  mutable row_weight : Weight.t;
  mutable finished : Weight.t;
  mutable edges_scanned : int;
  mutable prop_reads : int;
  mutable memo_ops : int;
  mutable memo_hits : int;
  mutable memo_misses : int;
  scratch : scratch;
}

let sink () =
  let targets = Vec.create ~dummy:0 in
  {
    spawns = Travs.create ();
    parents = Vec.create ~dummy:0;
    rows = Vec.create ~dummy:[||];
    row_weight = Weight.zero;
    finished = Weight.zero;
    edges_scanned = 0;
    prop_reads = 0;
    memo_ops = 0;
    memo_hits = 0;
    memo_misses = 0;
    scratch =
      {
        targets;
        shares = Array.make 8 Weight.zero;
        push_target = (fun ~target ~edge_id:_ ~label:_ -> Vec.push targets target);
      };
  }

let clear s =
  Travs.clear s.spawns;
  Vec.clear s.parents;
  Vec.clear s.rows;
  s.row_weight <- Weight.zero;
  s.finished <- Weight.zero;
  s.edges_scanned <- 0;
  s.prop_reads <- 0;
  s.memo_ops <- 0;
  s.memo_hits <- 0;
  s.memo_misses <- 0

let spawn s ~parent ~vertex ~step ~weight ~regs =
  Travs.push s.spawns ~vertex ~step ~weight ~regs;
  Vec.push s.parents parent

let finish s w = s.finished <- Weight.add s.finished w

let count_memo s ~ops ~hits ~misses =
  s.memo_ops <- s.memo_ops + ops;
  s.memo_hits <- s.memo_hits + hits;
  s.memo_misses <- s.memo_misses + misses

(* Split [w] over [n >= 1] children into [sc.shares]. A lone child takes
   [w] whole and draws nothing; [split_into] draws the same PRNG stream
   as [Weight.split]. *)
let split sc prng w n =
  if Array.length sc.shares < n then
    sc.shares <- Array.make (max n (2 * Array.length sc.shares)) Weight.zero;
  if n = 1 then sc.shares.(0) <- w else Weight.split_into prng w sc.shares ~n

let push_all targets vertices =
  for i = 0 to Array.length vertices - 1 do
    Vec.push targets vertices.(i)
  done

(* Spawn one child per collected target at [step], splitting [weight]
   over them, and empty the target buffer. With no target, the traverser
   at [vertex] finishes here instead; returns whether anything
   spawned. *)
let spawn_targets s prng ~vertex ~weight ~regs ~step =
  let sc = s.scratch in
  let n = Vec.length sc.targets in
  if n = 0 then finish s weight
  else begin
    split sc prng weight n;
    for i = 0 to n - 1 do
      spawn s ~parent:vertex ~vertex:(Vec.get sc.targets i) ~step ~weight:sc.shares.(i) ~regs
    done;
    Vec.clear sc.targets
  end;
  n > 0

(* One Join child per matching partner row, in match order, with the
   row's payload loaded into [load_regs]. *)
let rec spawn_matches s ~vertex ~regs ~load_regs ~cont i = function
  | [] -> ()
  | (row : Value.t array) :: rest ->
    let child = Array.copy regs in
    for j = 0 to Array.length load_regs - 1 do
      child.(load_regs.(j)) <- row.(j)
    done;
    spawn s ~parent:vertex ~vertex ~step:cont ~weight:s.scratch.shares.(i) ~regs:child;
    spawn_matches s ~vertex ~regs ~load_regs ~cont (i + 1) rest

(* Accounting note: a step that spawns nothing records only its finished
   weight — the memo probe, edge scan and property reads it made are not
   counted, so neither their metrics nor their simulated CPU cost are
   charged (a Visit that does not improve, a Join with no match, an
   Index_lookup that misses, an Expand over no matching edge). Every
   paper figure was generated under this accounting; changing it is a
   model change (ROADMAP), not a refactor. The [spawn_targets] and
   [n = 0] branches below are those sites. *)
let run s ~graph ~memo ~prng ~qid ~program ~scan ~vertex ~step:at ~weight ~regs =
  let step = Program.step program at in
  let sc = s.scratch in
  match step.Step.op with
  | Step.Index_lookup { vertex_label; key; value } ->
    push_all sc.targets (Graph.index_lookup graph ?vertex_label ~key value);
    if spawn_targets s prng ~vertex ~weight ~regs ~step:step.next then begin
      s.prop_reads <- s.prop_reads + 1;
      count_memo s ~ops:1 ~hits:1 ~misses:0
    end
  | Step.Scan { vertex_label } ->
    let vertices = scan vertex_label in
    push_all sc.targets vertices;
    if spawn_targets s prng ~vertex ~weight ~regs ~step:step.next then
      s.edges_scanned <- s.edges_scanned + Array.length vertices
  | Step.Expand { dir; edge_label } ->
    Graph.iter_adjacent graph ~dir ?label:edge_label vertex sc.push_target;
    if spawn_targets s prng ~vertex ~weight ~regs ~step:step.next then
      s.edges_scanned <- s.edges_scanned + Graph.degree graph ~dir vertex
  | Step.Filter pred ->
    s.prop_reads <- s.prop_reads + Step.pred_prop_reads pred;
    if Step.eval_pred graph ~vertex ~regs pred then
      spawn s ~parent:vertex ~vertex ~step:step.next ~weight ~regs
    else finish s weight
  | Step.Set_reg { reg; expr } ->
    let child = Array.copy regs in
    child.(reg) <- Step.eval_expr graph ~vertex ~regs expr;
    spawn s ~parent:vertex ~vertex ~step:step.next ~weight ~regs:child;
    s.prop_reads <- s.prop_reads + Step.expr_prop_reads expr
  | Step.Move_to { reg } ->
    let target = Value.vertex_exn regs.(reg) in
    spawn s ~parent:vertex ~vertex:target ~step:step.next ~weight ~regs
  | Step.Dedup { by } ->
    let fresh =
      match by with
      | Step.Vertex_id -> Memo.add_vertex_if_absent memo ~qid ~label:at vertex
      | _ -> Memo.add_if_absent memo ~qid ~label:at (Step.eval_expr graph ~vertex ~regs by)
    in
    s.prop_reads <- s.prop_reads + Step.expr_prop_reads by;
    if fresh then begin
      spawn s ~parent:vertex ~vertex ~step:step.next ~weight ~regs;
      count_memo s ~ops:1 ~hits:0 ~misses:1
    end
    else begin
      finish s weight;
      count_memo s ~ops:1 ~hits:1 ~misses:0
    end
  | Step.Visit { dist_reg; max_hops; cont; emit_improved } ->
    let d = Value.to_int_exn regs.(dist_reg) in
    let visit = Memo.min_int_update memo ~qid ~label:at vertex d in
    (* First visit: continue, and loop on while hops remain. Improved:
       under asynchronous order a vertex can be first reached through a
       longer path; when the continuation aggregates distances (min /
       max), improvements must re-emit or the result would be stale.
       Set-semantics continuations keep the exactly-once emission. *)
    let emit =
      match visit with
      | Memo.First_visit -> true
      | Memo.Improved -> emit_improved
      | Memo.Not_improved -> false
    in
    let loop = d < max_hops && visit <> Memo.Not_improved in
    let hit = if visit = Memo.First_visit then 0 else 1 in
    let n = Bool.to_int emit + Bool.to_int loop in
    if n = 0 then finish s weight (* uncounted: see the note on [run] *)
    else begin
      split sc prng weight n;
      if emit then spawn s ~parent:vertex ~vertex ~step:cont ~weight:sc.shares.(0) ~regs;
      if loop then begin
        let child = Array.copy regs in
        child.(dist_reg) <- Value.int (d + 1);
        spawn s ~parent:vertex ~vertex ~step:step.next ~weight:sc.shares.(n - 1) ~regs:child
      end;
      count_memo s ~ops:1 ~hits:hit ~misses:(1 - hit)
    end
  | Step.Join { key; store; load_regs; cont; _ } ->
    let key_value = Step.eval_expr graph ~vertex ~regs key in
    let n_store = Array.length store in
    let payload =
      if n_store = 0 then [||]
      else begin
        let p = Array.make n_store (Step.eval_expr graph ~vertex ~regs store.(0)) in
        for i = 1 to n_store - 1 do
          p.(i) <- Step.eval_expr graph ~vertex ~regs store.(i)
        done;
        p
      end
    in
    let partner = Program.join_partner program at in
    Memo.rows_add memo ~qid ~label:at key_value payload;
    let matches = Memo.rows_get memo ~qid ~label:partner key_value in
    let n = List.length matches in
    if n = 0 then finish s weight (* uncounted: see the note on [run] *)
    else begin
      split sc prng weight n;
      spawn_matches s ~vertex ~regs ~load_regs ~cont 0 matches;
      let reads = ref (Step.expr_prop_reads key) in
      for i = 0 to n_store - 1 do
        reads := !reads + Step.expr_prop_reads store.(i)
      done;
      s.prop_reads <- s.prop_reads + !reads;
      count_memo s ~ops:2 ~hits:n ~misses:0
    end
  | Step.Aggregate { agg; reg = _ } ->
    let partial = Memo.partial memo ~qid ~label:at graph agg in
    Aggregate.accumulate agg partial graph ~vertex ~regs;
    finish s weight;
    s.prop_reads <- s.prop_reads + Step.agg_prop_reads agg;
    s.memo_ops <- s.memo_ops + 1
  | Step.Emit exprs ->
    let n = Array.length exprs in
    let row = if n = 0 then [||] else Array.make n Value.Null in
    let reads = ref 0 in
    for i = 0 to n - 1 do
      row.(i) <- Step.eval_expr graph ~vertex ~regs exprs.(i);
      reads := !reads + Step.expr_prop_reads exprs.(i)
    done;
    Vec.push s.rows row;
    s.row_weight <- Weight.add s.row_weight weight;
    s.prop_reads <- s.prop_reads + !reads

(* The header's conservation identity as a runtime predicate over
   everything in the sink, for the engines' sanitizer (check) mode:
   callers [clear] the sink before each [run] they check. *)
let conserves ~weight s =
  let total = Weight.add (Travs.total_weight s.spawns) (Weight.add s.finished s.row_weight) in
  Weight.equal total weight

let route ~graph ~partition ~coordinator program ~vertex ~step ~regs =
  match Program.routing program step with
  | Step.By_coordinator -> coordinator
  | Step.By_vertex | Step.By_key Step.Vertex_id -> Partition.owner partition vertex
  | Step.By_key e -> begin
    match Step.eval_expr graph ~vertex ~regs e with
    | Value.Vertex v -> Partition.owner partition v
    | v -> Value.hash v mod Partition.n_parts partition
  end

let msg_kind program step =
  match (Program.step program step).Step.op with
  | Step.Emit _ -> Metrics.Result_msg
  | _ -> Metrics.Traverser_msg

let partition_scan graph members label =
  let mine = Lazy.force members in
  match label with
  | None -> mine
  | Some l -> Array.of_seq (Seq.filter (Graph.has_vertex_label graph ~label:l) (Array.to_seq mine))

let continuation graph program ~agg_step partial =
  let step = Program.step program agg_step in
  let agg, reg =
    match step.Step.op with
    | Step.Aggregate { agg; reg } -> (agg, reg)
    | _ -> invalid_arg "Exec.continuation: not an aggregate step"
  in
  let partial = match partial with Some p -> p | None -> Aggregate.create graph agg in
  let regs = Array.make (Program.n_registers program) Value.Null in
  regs.(reg) <- Aggregate.finalize partial;
  regs

(* CPU time of the sink's work under a cluster cost table: one step
   dispatch plus its data and memo volume. *)
let cost (costs : Cluster.costs) s =
  Sim_time.add costs.Cluster.step_dispatch
    ((s.edges_scanned * costs.Cluster.per_edge)
    + (s.prop_reads * costs.Cluster.per_property)
    + (s.memo_ops * costs.Cluster.memo_op))
