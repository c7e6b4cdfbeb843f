(* Online vertex migration, the async engine's adaptive repartitioning:
   the traffic profile, refinement rounds, the execution gate and the
   memo hand-off with its stash.

   Rounds trigger lazily off the remote-dispatch path: once at least
   [min_traffic] remote hops have been profiled since the last round and
   [refine_interval] has elapsed, the partition directory refines the
   owner table (uncosted, off the critical path). What is costed is the
   migration itself — the order to each old owner and the memo-entry
   data message it sends on. The owner table flips immediately:
   traversers already in flight toward the old owner get forwarded on
   arrival, and arrivals at the new owner park until the entries land,
   so no memo state is ever read half-moved and Theorem 1's weight
   conservation is untouched. *)

open Payload
open Pstm_obs

(* Refinement caps: per-partition size and profiled traffic over their
   means, and vertex moves per round. *)
let max_imbalance = 1.1
let max_heat_imbalance = 1.5
let max_moves = 1024

type t = {
  graph : Graph.t;
  partition : Partition.t;
  adaptive : bool;
  refine_interval : Sim_time.t;
  min_traffic : int;
  centralized : Step.op -> bool;
  cost : Cost_model.t;
  metrics : Metrics.t;
  (* Two traffic sinks: the recorder's (export only, on whenever tracing
     is) and the engine's own profile feeding refinement (adaptive only).
     Both count remote dispatches keyed by the (parent vertex, routing
     vertex) pair. *)
  obs_traffic : Traffic.t;
  profile : Traffic.t;
  causal : Causal.t;
  mutation : Mutation.t option;
  on_event : string -> int -> unit;
  live : int -> bool;
  slab : slab;
  send : send;
  (* Vertices whose memo entries are in flight to their new owner; the
     stash parks traversers that arrive at the new owner early, as
     message handles, newest first. *)
  migrating : (int, int list ref) Hashtbl.t;
  (* Each vertex migrates at most once per run: successive rounds refine
     against an evolving profile, and letting them re-home the same
     vertices chases every intermediate local optimum — the migration
     and forwarding churn costs more than the cut it recovers. *)
  migrated_ever : (int, unit) Hashtbl.t;
  mutable next_round : Sim_time.t;
  mutable profiled_at_round : int;
}

let create ~graph ~partition ~adaptive ~refine_interval ~min_traffic
    ?(centralized = fun _ -> false) ~cost ~metrics ?(obs = Recorder.disabled) ?mutation
    ?(on_event = fun _ _ -> ()) ~live ~slab ~send () =
  let profile = if adaptive then Traffic.create () else Traffic.disabled in
  { graph; partition; adaptive; refine_interval; min_traffic; centralized; cost; metrics;
    obs_traffic = Recorder.traffic obs; profile; causal = Recorder.causal obs; mutation;
    on_event; live; slab; send; migrating = Hashtbl.create 64; migrated_ever = Hashtbl.create 64;
    next_round = Sim_time.zero; profiled_at_round = 0 }

(* The vertex a key names, or -1 when the key is not a vertex. The
   traverser's own vertex is read without boxing it. *)
let key_vertex t ~vertex ~regs = function
  | Step.Vertex_id -> vertex
  | e -> ( match Step.eval_expr t.graph ~vertex ~regs e with Value.Vertex v -> v | _ -> -1)

(* The vertex whose owner the dispatch target is, or -1: By_vertex
   routes by the traverser's vertex, By_key by the key's vertex when the
   key is one. Coordinator-routed and hash-routed steps (and Gaia's
   centralized stateful ops) have none. *)
let routed_vertex t program ~vertex ~step ~regs =
  if t.centralized (Program.step program step).Step.op then -1
  else begin
    match Program.routing program step with
    | Step.By_coordinator -> -1
    | Step.By_vertex -> vertex
    | Step.By_key e -> key_vertex t ~vertex ~regs e
  end

(* The vertex whose memo entries this traverser's step reads or writes,
   or -1. Only Dedup / Visit / Join key memo records by a value — when
   that value is a vertex, migration re-homes the records, so stale
   arrivals must chase the new owner and early arrivals must wait for
   the entries. Stateless steps (Expand, Filter, ...) execute wherever
   they land; a stale arrival there is only a locality miss. *)
let stateful_key_vertex t program ~vertex ~step ~regs =
  let op = (Program.step program step).Step.op in
  if t.centralized op then -1
  else begin
    match op with
    | Step.Visit _ -> vertex
    | Step.Dedup { by } | Step.Join { key = by; _ } -> key_vertex t ~vertex ~regs by
    | _ -> -1
  end

(* Every remote dispatch whose target is decided by a vertex's owner is
   an edge of the workload's communication graph — the signal the
   refiner minimizes. [src_vertex] is the parent's vertex, or -1 for a
   traverser no step spawned. Returns whether the hop was profiled. *)
let profile_hop t ~src_vertex program ~vertex ~step ~regs =
  (t.adaptive || Traffic.enabled t.obs_traffic)
  && src_vertex >= 0
  &&
  let v = routed_vertex t program ~vertex ~step ~regs in
  v >= 0
  &&
  let bytes = 8 + Traverser.wire_bytes regs in
  Traffic.record t.obs_traffic ~src:src_vertex ~dst:v ~bytes;
  Traffic.record t.profile ~src:src_vertex ~dst:v ~bytes;
  true

(* One migration order: [vertex] moves to [dst] and its old owner is told
   to ship the entries. A vertex whose previous migration is still in
   flight stays put (its entries are not at the owner the refiner sees),
   and no vertex moves twice. *)
let migrate t ~at ~src ~cz ~vertex ~dst =
  if Hashtbl.mem t.migrating vertex || Hashtbl.mem t.migrated_ever vertex then Sim_time.zero
  else begin
    let old_owner = Partition.owner t.partition vertex in
    Hashtbl.add t.migrated_ever vertex ();
    Partition.set_owner t.partition vertex dst;
    Hashtbl.add t.migrating vertex (ref []);
    t.on_event "order" vertex;
    Metrics.(incr t.metrics Counter.migrations);
    t.send ~at ~src ~dst:old_owner ~kind:Metrics.Control_msg
      (msg t.slab ~qid:(-1) ~cz (P_migrate { vertex; dst }))
  end

let maybe_adapt t ~at ~src ~cz =
  if
    t.adaptive
    && Traffic.total_count t.profile - t.profiled_at_round >= t.min_traffic
    && Sim_time.compare at t.next_round >= 0
  then begin
    t.next_round <- Sim_time.add at t.refine_interval;
    t.profiled_at_round <- Traffic.total_count t.profile;
    let { Repartition.moved; _ } =
      Repartition.refine_profile ~max_imbalance ~max_heat_imbalance ~max_moves t.partition
        (Traffic.edges t.profile)
    in
    List.fold_left
      (fun cost { Repartition.vertex; dst; _ } ->
        Sim_time.add cost (migrate t ~at ~src ~cz ~vertex ~dst))
      Sim_time.zero moved
  end
  else Sim_time.zero

(* The gate reruns at execution time, since the owner table may flip
   while a traverser sits queued or staged. A stateful step keyed by a
   vertex that migrated away chases the new owner, forwarded wholesale so
   its weight is conserved bit for bit; one whose memo entries are still
   in flight to this worker parks until they land. The context parks
   with it; the stash wait reads as Queue. Gated traversers leave the
   group. *)
let gate t ~at ~w ~qid program travs czs =
  if not t.adaptive then Sim_time.zero
  else begin
    let cost = ref Sim_time.zero in
    let kept = ref 0 in
    for i = 0 to Travs.length travs - 1 do
      let vertex = Travs.vertex travs i and step = Travs.step travs i in
      let weight = Travs.weight travs i and regs = Travs.regs travs i in
      let cz = Vec.get czs i in
      let v = stateful_key_vertex t program ~vertex ~step ~regs in
      if v >= 0 && Partition.owner t.partition v <> w then begin
        Metrics.(incr t.metrics Counter.forwarded);
        t.on_event "forward" v;
        let cz = Causal.hop t.causal ~qid ~name:"forward" ~ts:at ~src:cz Causal.Queue in
        cost :=
          Sim_time.add !cost
            (t.send ~at ~src:w ~dst:(Partition.owner t.partition v) ~kind:Metrics.Traverser_msg
               (Payload.trav t.slab ~qid ~cz ~vertex ~step ~weight ~regs))
      end
      else if v >= 0 && Hashtbl.mem t.migrating v then begin
        Metrics.(incr t.metrics Counter.stashed);
        t.on_event "stash" v;
        let stash = Hashtbl.find t.migrating v in
        stash := Payload.trav t.slab ~qid ~cz ~vertex ~step ~weight ~regs :: !stash
      end
      else begin
        Travs.move travs ~src:i ~dst:!kept;
        Vec.set czs !kept cz;
        incr kept
      end
    done;
    Travs.truncate travs !kept;
    Vec.truncate czs !kept;
    !cost
  end

(* Old owner: pull the vertex's records out of the local memo (all
   queries, deterministic order) and ship them as one costed data
   message. Any traverser for the vertex still queued behind the order
   re-routes on arrival through the gate. New owner: install the records
   — entries of queries that ended while the message was in flight are
   dropped (their cleanup already passed) — then release the parked
   traversers in arrival order. The message's slot is already released;
   [cz] is its context. *)
let handle t ~at ~w memo tasks ~cz = function
  | P_migrate { vertex; dst } ->
    let entries = Memo.extract_for_key memo (Value.Vertex vertex) in
    t.on_event "extract" vertex;
    Metrics.(add t.metrics Counter.migrated_entries (List.length entries));
    let cz = Causal.hop t.causal ~qid:(-1) ~name:"migrate-extract" ~ts:at ~src:cz Causal.Queue in
    Sim_time.add
      (Cost_model.memo_op t.cost * (1 + List.length entries))
      (t.send ~at ~src:w ~dst ~kind:Metrics.Control_msg
         (msg t.slab ~qid:(-1) ~cz (P_migrate_data { vertex; entries })))
  | P_migrate_data { vertex; entries } ->
    List.iter
      (fun (qid, label, entry) ->
        if t.live qid then Memo.set memo ~qid ~label (Value.Vertex vertex) entry)
      entries;
    t.on_event "install" vertex;
    (match Hashtbl.find_opt t.migrating vertex with
    | Some stash ->
      Hashtbl.remove t.migrating vertex;
      if t.mutation <> Some Mutation.Drop_stash_drain then
        List.iter
          (fun h ->
            (* Each parked traverser resumes through a drain node. The
               install context comes in first (for DAG completeness); the
               traverser's own parked context binds last, so the walk
               stays within its query and the whole stash wait reads as
               Queue. *)
            let parked = Payload.cz t.slab h in
            if Causal.enabled t.causal && parked >= 0 then begin
              let d = Causal.node t.causal ~qid:(Payload.qid t.slab h) ~name:"stash-drain" ~ts:at in
              Causal.edge t.causal ~src:cz ~dst:d Causal.Queue;
              Causal.edge t.causal ~src:parked ~dst:d Causal.Queue;
              Payload.set_cz t.slab h d
            end;
            Ring.push tasks h)
          (List.rev !stash)
    | None -> ());
    Cost_model.memo_op t.cost * (1 + List.length entries)
  | _ -> invalid_arg "Migration.handle: not a migration message"
