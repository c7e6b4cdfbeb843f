(* Per-step operator statistics — the EXPLAIN ANALYZE side of the
   observability layer.

   Counters are indexed by compiled step index and aggregated across all
   workers, so after a run the table reads like a query plan annotated
   with actuals: traversers in/out, result rows, edges scanned, memo
   hits/misses, and simulated busy time per step.

   Conservation invariant (mirrors [Exec.conserves]): every traverser
   executed at a step was either seeded into the query or produced by
   some step, so [total_in = seeds + total_out] must hold for any engine
   that records faithfully. [test_obs] checks it on a real run. *)

type t = {
  enabled : bool;
  mutable n : int; (* number of step slots in use *)
  mutable t_in : int array; (* traversers executed at step i *)
  mutable t_out : int array; (* traversers spawned by step i *)
  mutable rows : int array;
  mutable finished : int array; (* executions at step i that retired weight *)
  mutable edges : int array;
  mutable hits : int array;
  mutable misses : int array;
  mutable busy_ns : int array;
  mutable seeds : int; (* traversers injected from outside any step *)
}

let disabled =
  {
    enabled = false;
    n = 0;
    t_in = [||];
    t_out = [||];
    rows = [||];
    finished = [||];
    edges = [||];
    hits = [||];
    misses = [||];
    busy_ns = [||];
    seeds = 0;
  }

let create () =
  {
    enabled = true;
    n = 0;
    t_in = Array.make 8 0;
    t_out = Array.make 8 0;
    rows = Array.make 8 0;
    finished = Array.make 8 0;
    edges = Array.make 8 0;
    hits = Array.make 8 0;
    misses = Array.make 8 0;
    busy_ns = Array.make 8 0;
    seeds = 0;
  }

let enabled t = t.enabled

let grow arr cap =
  let next = Array.make cap 0 in
  Array.blit arr 0 next 0 (Array.length arr);
  next

let ensure t step =
  if step >= Array.length t.t_in then begin
    let cap = max (step + 1) (2 * Array.length t.t_in) in
    t.t_in <- grow t.t_in cap;
    t.t_out <- grow t.t_out cap;
    t.rows <- grow t.rows cap;
    t.finished <- grow t.finished cap;
    t.edges <- grow t.edges cap;
    t.hits <- grow t.hits cap;
    t.misses <- grow t.misses cap;
    t.busy_ns <- grow t.busy_ns cap
  end;
  if step >= t.n then t.n <- step + 1

let record t ~step ~n ~out ~rows ~finished ~edges ~memo_hits ~memo_misses ~busy_ns =
  if t.enabled && step >= 0 then begin
    ensure t step;
    t.t_in.(step) <- t.t_in.(step) + n;
    t.t_out.(step) <- t.t_out.(step) + out;
    t.rows.(step) <- t.rows.(step) + rows;
    t.finished.(step) <- t.finished.(step) + (if finished then 1 else 0);
    t.edges.(step) <- t.edges.(step) + edges;
    t.hits.(step) <- t.hits.(step) + memo_hits;
    t.misses.(step) <- t.misses.(step) + memo_misses;
    t.busy_ns.(step) <- t.busy_ns.(step) + busy_ns
  end

let seed t k = if t.enabled then t.seeds <- t.seeds + k

let n_steps t = t.n
let seeds t = t.seeds

let sum arr n =
  let acc = ref 0 in
  for i = 0 to n - 1 do
    acc := !acc + arr.(i)
  done;
  !acc

let total_in t = sum t.t_in t.n
let total_out t = sum t.t_out t.n
let total_finished t = sum t.finished t.n

(* Every traverser executed was injected or produced by a step. *)
let conserves t = total_in t = seeds t + total_out t

let pp_table ?(step_label = fun i -> Printf.sprintf "step %d" i) fmt t =
  let busy_total = sum t.busy_ns t.n in
  Format.fprintf fmt "%-4s %-34s %12s %12s %10s %12s %9s %9s %10s %6s@."
    "#" "operator" "trav-in" "trav-out" "rows" "edges" "memo-hit" "memo-miss" "busy-ms" "busy%";
  Format.fprintf fmt "%s@." (String.make 118 '-');
  for i = 0 to t.n - 1 do
    let pct =
      if busy_total = 0 then 0.0
      else 100.0 *. float_of_int t.busy_ns.(i) /. float_of_int busy_total
    in
    Format.fprintf fmt "%-4d %-34s %12d %12d %10d %12d %9d %9d %10.3f %5.1f%%@."
      i (step_label i) t.t_in.(i) t.t_out.(i) t.rows.(i) t.edges.(i) t.hits.(i) t.misses.(i)
      (float_of_int t.busy_ns.(i) /. 1e6)
      pct
  done;
  Format.fprintf fmt "%s@." (String.make 118 '-');
  Format.fprintf fmt "%-39s %12d %12d %10d %12d %9d %9d %10.3f@."
    (Printf.sprintf "total (seeds=%d, retired=%d)" t.seeds (total_finished t))
    (total_in t) (total_out t) (sum t.rows t.n) (sum t.edges t.n) (sum t.hits t.n)
    (sum t.misses t.n)
    (float_of_int busy_total /. 1e6)

let to_json ?(step_label = fun i -> Printf.sprintf "step %d" i) t =
  let steps = ref [] in
  for i = t.n - 1 downto 0 do
    steps :=
      Json.Obj
        [
          ("step", Json.Int i);
          ("operator", Json.Str (step_label i));
          ("traversers_in", Json.Int t.t_in.(i));
          ("traversers_out", Json.Int t.t_out.(i));
          ("rows", Json.Int t.rows.(i));
          ("finished", Json.Int t.finished.(i));
          ("edges_scanned", Json.Int t.edges.(i));
          ("memo_hits", Json.Int t.hits.(i));
          ("memo_misses", Json.Int t.misses.(i));
          ("busy_ns", Json.Int t.busy_ns.(i));
        ]
      :: !steps
  done;
  Json.Obj
    [
      ("seeds", Json.Int t.seeds);
      ("total_in", Json.Int (total_in t));
      ("total_out", Json.Int (total_out t));
      ("total_finished", Json.Int (total_finished t));
      ("conserves", Json.Bool (conserves t));
      ("steps", Json.List !steps);
    ]
