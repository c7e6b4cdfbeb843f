(* The async engine's CPU cost model: what a group execution and a memo
   operation cost under the engine's options, and the per-quantum polling
   tax of the dataflow flavors.

   Under the non-partitioned model ([shared_state]) every step touches
   node-shared state: the graph storage latch plus query-state
   synchronization. Contention has two axes — the worker fan-in per node
   (static, §V-A2) and the number of queries concurrently resident in the
   shared structures: a latch queue grows with every query whose state
   hangs off it, so the per-acquisition cost scales with live
   concurrency. The partitioned model pays none of this — each worker
   owns its data — and its step cost is exactly {!Exec.cost}. *)

(* Data-access multiplier when the graph exceeds the memory capacity. *)
let swap_penalty = 60

type t = {
  costs : Cluster.costs;
  shared_state : bool;
  fan_in : int; (* latch fan-in factor of a node's workers *)
  swapping : bool;
  mutable resident : int; (* queries launched and not yet terminal *)
  mutable live_ops : int; (* their operator instances *)
}

let create ~costs ~shared_state ~workers_per_node ~swapping =
  let fan_in = 1 + ((workers_per_node - 1) / 5) in
  { costs; shared_state; fan_in; swapping; resident = 0; live_ops = 0 }

let launch t program =
  t.live_ops <- t.live_ops + Program.n_steps program;
  t.resident <- t.resident + 1

let retire t program =
  t.live_ops <- t.live_ops - Program.n_steps program;
  t.resident <- t.resident - 1

(* Latch contention grows with the number of concurrently resident
   queries, but sublinearly: colliding critical sections are short, so
   only a fraction of the other residents is ever queued on the same
   latch. A lone query pays exactly the uncontended cost. *)
let contention t = 1 + (2 * (max 1 t.resident - 1) / 5)

let memo_op t =
  if t.shared_state then Sim_time.add t.costs.Cluster.memo_op (t.costs.Cluster.latch * contention t)
  else t.costs.Cluster.memo_op

let step t (sink : Exec.sink) =
  let c = t.costs in
  let base =
    if not t.shared_state then Exec.cost c sink
    else begin
      let data =
        (sink.Exec.edges_scanned * c.Cluster.per_edge) + (sink.prop_reads * c.per_property)
      in
      c.Cluster.step_dispatch
      + (c.Cluster.latch * t.fan_in * contention t)
      + (data + (data / 2))
      + (sink.Exec.memo_ops * memo_op t)
    end
  in
  (* Memory thrashing faults the whole access path, not just the data
     columns (§V-A3: GraphScope on SF1000). *)
  if t.swapping then base * swap_penalty else base

let polling t = t.costs.Cluster.operator_sched * t.live_ops
