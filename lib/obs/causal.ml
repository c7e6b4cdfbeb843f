(* Causal DAG over sim-time hand-offs — the EXPLAIN LATENCY side of the
   observability layer.

   Every hand-off the async engine performs (seed injection, step
   execution, batched frontier execution, remote dispatch and delivery,
   retransmitted delivery, migration stash-drain, aggregation barrier,
   progress-tracker traffic, tracker release) registers a *node* (an
   instant in sim-time) and *edges* from the events that caused it. An
   edge [u -> v] covers exactly the interval [ts u, ts v] and carries a
   category saying what the query was doing (or waiting on) during it.

   Critical-path extraction exploits the determinism of the simulator:
   the engine adds incoming edges so that the *last* edge added into a
   node is the binding cause — the event that actually determined the
   node's time (e.g. a worker-occupancy edge is added after the
   queue-wait edge exactly when the worker was busy up to the execution
   instant). Walking binding edges from the tracker-release node back to
   the submit node therefore yields a chain of abutting intervals whose
   durations telescope to the end-to-end query latency *exactly* — the
   per-category attribution partitions the latency with no tolerance.

   The engine only ever adds binding edges within one query's chain (a
   task delayed by another query's compute is blamed as queue-wait, not
   walked into the other query's history), so the walk always terminates
   at the owning query's submit node. *)

type category =
  | Compute (* worker CPU executing steps, batches, flushes *)
  | Queue (* hand-off sat in a worker queue / stash while the worker was elsewhere *)
  | Network (* TLC buffer dwell, NLC window, NIC serialization, wire, shm hop *)
  | Retransmit (* delivery completed by a retransmitted copy: drop + timeout + resend *)
  | Barrier (* waiting for a collective: aggregation partials, setup acks *)
  | Tracker (* progress-tracker coordination: coalescer dwell, receipt, release *)

let categories = [ Compute; Queue; Network; Retransmit; Barrier; Tracker ]

let category_name = function
  | Compute -> "compute"
  | Queue -> "queue-wait"
  | Network -> "network"
  | Retransmit -> "retransmit-recovery"
  | Barrier -> "barrier"
  | Tracker -> "tracker-coordination"

let category_index = function
  | Compute -> 0
  | Queue -> 1
  | Network -> 2
  | Retransmit -> 3
  | Barrier -> 4
  | Tracker -> 5

type t = {
  enabled : bool;
  capacity : int;
  qids : int Vec.t; (* per node: owning query (-1 for system nodes) *)
  times : Sim_time.t Vec.t; (* per node: instant *)
  names : string Vec.t; (* per node: static site label *)
  incoming : (int * category) list Vec.t; (* per node: edges, binding cause first *)
  releases : (int, int) Hashtbl.t; (* qid -> release node *)
  submits : (int, int) Hashtbl.t; (* qid -> submit node *)
  mutable n_edges : int;
  mutable dropped : int; (* node requests refused after [capacity] *)
}

let disabled =
  {
    enabled = false;
    capacity = 0;
    qids = Vec.create ~dummy:0;
    times = Vec.create ~dummy:Sim_time.zero;
    names = Vec.create ~dummy:"";
    incoming = Vec.create ~dummy:[];
    releases = Hashtbl.create 1;
    submits = Hashtbl.create 1;
    n_edges = 0;
    dropped = 0;
  }

let create ?(capacity = 1 lsl 20) () =
  {
    enabled = true;
    capacity;
    qids = Vec.create ~dummy:0;
    times = Vec.create ~dummy:Sim_time.zero;
    names = Vec.create ~dummy:"";
    incoming = Vec.create ~dummy:[];
    releases = Hashtbl.create 16;
    submits = Hashtbl.create 16;
    n_edges = 0;
    dropped = 0;
  }

let enabled t = t.enabled
let n_nodes t = Vec.length t.times
let n_edges t = t.n_edges
let dropped t = t.dropped

(* Truncation refuses new nodes rather than wrapping: overwriting old
   nodes would sever every path through them, silently corrupting the
   attribution. A refused node returns -1, which [edge] ignores, so a
   truncated DAG stays internally consistent and reports itself via
   [dropped]. *)
let node t ~qid ~name ~ts =
  if not t.enabled then -1
  else if n_nodes t >= t.capacity then begin
    t.dropped <- t.dropped + 1;
    -1
  end
  else begin
    let id = n_nodes t in
    Vec.push t.qids qid;
    Vec.push t.times ts;
    Vec.push t.names name;
    Vec.push t.incoming [];
    id
  end

let edge t ~src ~dst cat =
  if t.enabled && src >= 0 && dst >= 0 then begin
    Vec.set t.incoming dst ((src, cat) :: Vec.get t.incoming dst);
    t.n_edges <- t.n_edges + 1
  end

let hop t ~qid ~name ~ts ~src cat =
  if not t.enabled then -1
  else begin
    let n = node t ~qid ~name ~ts in
    edge t ~src ~dst:n cat;
    n
  end

let set_submit t ~qid id = if t.enabled && id >= 0 then Hashtbl.replace t.submits qid id
let set_release t ~qid id = if t.enabled && id >= 0 then Hashtbl.replace t.releases qid id

let queries t =
  (* det-ok: fold order is erased by the sort on the int keys below *)
  let qids = Hashtbl.fold (fun qid _ acc -> qid :: acc) t.releases [] in
  List.sort Int.compare qids

type seg = {
  seg_cat : category;
  seg_src : string;
  seg_dst : string;
  seg_t0 : Sim_time.t;
  seg_t1 : Sim_time.t;
}

let seg_dur s = Sim_time.diff s.seg_t1 s.seg_t0

(* Walk binding edges (head of each incoming list) from the release node
   back to the root; segments come out in seed-to-release order. Returns
   [None] when the query never released, the DAG was truncated, or the
   walk does not terminate at this query's submit node (a broken chain —
   an instrumentation bug, not a property of the run). *)
let critical_path t ~qid =
  if not t.enabled || t.dropped > 0 then None
  else
    match Hashtbl.find_opt t.releases qid with
    | None -> None
    | Some release ->
      let submit = Hashtbl.find_opt t.submits qid in
      let rec walk v acc steps =
        if steps > n_nodes t then None (* cycle guard; cannot happen in a DAG *)
        else
          match Vec.get t.incoming v with
          | [] -> if submit = Some v then Some acc else None
          | (u, cat) :: _ ->
            let s =
              {
                seg_cat = cat;
                seg_src = Vec.get t.names u;
                seg_dst = Vec.get t.names v;
                seg_t0 = Vec.get t.times u;
                seg_t1 = Vec.get t.times v;
              }
            in
            walk u (s :: acc) (steps + 1)
      in
      walk release [] 0

(* Per-category sums over the critical path, in [categories] order. The
   segments abut, so the sums partition [release - submit] exactly. *)
let attribution t ~qid =
  match critical_path t ~qid with
  | None -> None
  | Some segs ->
    let sums = Array.make 6 Sim_time.zero in
    List.iter
      (fun s ->
        let i = category_index s.seg_cat in
        sums.(i) <- Sim_time.add sums.(i) (seg_dur s))
      segs;
    Some (List.map (fun c -> (c, sums.(category_index c))) categories)

let attribution_total a =
  List.fold_left (fun acc (_, d) -> Sim_time.add acc d) Sim_time.zero a

let dominant a =
  List.fold_left (fun (bc, bd) (c, d) -> if Sim_time.compare d bd > 0 then (c, d) else (bc, bd))
    (List.hd a) (List.tl a)

(* The EXPLAIN LATENCY table: one row per category, blame share against
   the exact end-to-end latency. *)
let pp_explain ppf t ~qid =
  match (attribution t ~qid, critical_path t ~qid) with
  | None, _ | _, None ->
    if t.dropped > 0 then
      Fmt.pf ppf "EXPLAIN LATENCY q%d: causal DAG truncated (%d nodes dropped)@." qid t.dropped
    else Fmt.pf ppf "EXPLAIN LATENCY q%d: no complete causal path (query not released?)@." qid
  | Some attr, Some segs ->
    let total = attribution_total attr in
    let total_f = float_of_int (Sim_time.to_ns total) in
    Fmt.pf ppf "EXPLAIN LATENCY q%d: critical path %.3f ms over %d segments@." qid
      (Sim_time.to_ms total) (List.length segs);
    Fmt.pf ppf "  %-21s %12s %7s@." "category" "time (ms)" "share";
    List.iter
      (fun (c, d) ->
        let share = if total_f = 0.0 then 0.0 else 100.0 *. float_of_int (Sim_time.to_ns d) /. total_f in
        Fmt.pf ppf "  %-21s %12.3f %6.1f%%@." (category_name c) (Sim_time.to_ms d) share)
      attr;
    let dc, dd = dominant attr in
    let share = if total_f = 0.0 then 0.0 else 100.0 *. float_of_int (Sim_time.to_ns dd) /. total_f in
    Fmt.pf ppf "  dominant: %s (%.1f%%)@." (category_name dc) share

(* Deterministic JSON: category order fixed, one object per query. *)
let query_json t ~qid =
  match attribution t ~qid with
  | None -> Json.Obj [ ("qid", Json.Int qid); ("complete", Json.Bool false) ]
  | Some attr ->
    let total = attribution_total attr in
    let dc, _ = dominant attr in
    Json.Obj
      [
        ("qid", Json.Int qid);
        ("complete", Json.Bool true);
        ("critical_path_ns", Json.Int (Sim_time.to_ns total));
        ( "attribution_ns",
          Json.Obj (List.map (fun (c, d) -> (category_name c, Json.Int (Sim_time.to_ns d))) attr) );
        ("dominant", Json.Str (category_name dc));
      ]

let to_json t =
  Json.Obj
    [
      ("nodes", Json.Int (n_nodes t));
      ("edges", Json.Int t.n_edges);
      ("dropped", Json.Int t.dropped);
      ("queries", Json.List (List.map (fun qid -> query_json t ~qid) (queries t)));
    ]
