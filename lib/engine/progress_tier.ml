(* The async engine's progress tier (§IV-A, §III-C): each worker's weight
   coalescer, the per-phase weight trackers on each query's coordinator,
   phase completion and the aggregate combine. The engine hands it
   finished weights and progress / aggregate messages; the tier returns
   the CPU cost, sends what it must through [send], and hands a query
   whose last phase completed back through [complete]. *)

open Payload

type query = {
  trackers : Progress.tracker array; (* one per phase *)
  mutable launched : bool; (* the submit event ran (trackers registered) *)
  mutable setup_acks : int; (* dataflow deployment acks outstanding *)
  mutable combine_step : int; (* aggregate step being combined, or -1 *)
  mutable combine_expected : int;
  mutable combine_received : int;
  mutable combine_acc : Aggregate.t option; (* the coordinator's accumulator *)
}

type q = query Lifecycle.query

let state program =
  let tracker _ = Progress.tracker ~target:Weight.root in
  let trackers = Array.init (Program.n_phases program) tracker in
  { trackers; launched = false; setup_acks = 0; combine_step = -1; combine_expected = 0;
    combine_received = 0; combine_acc = None }

type t = {
  graph : Graph.t;
  costs : Cluster.costs;
  metrics : Metrics.t;
  coalescers : Progress.coalescer array; (* one per worker *)
  coalescing : bool;
  per_traverser : bool;
  responders : int array;
  accumulators : Memo.t;
      (* one accumulator per combine in progress, keyed (qid, aggregate
         step): a memo of its own, so accumulators are pooled like the
         workers' partials *)
  check : bool;
  mutation : Mutation.t option;
  obs_on : bool;
  trace : Pstm_obs.Trace.t;
  causal : Pstm_obs.Causal.t;
  on_event : string -> qid:int -> phase:int -> unit;
  live : int -> q option;
  slab : slab;
  send : send;
  complete : at:Sim_time.t -> cz:int -> w:int -> q -> Sim_time.t;
}

let create ~graph ~costs ~metrics ~n_workers ~coalescing ~per_traverser ~responders ?(check = false)
    ?mutation ?(obs = Pstm_obs.Recorder.disabled) ?(on_event = fun _ ~qid:_ ~phase:_ -> ()) ~live
    ~slab ~send ~complete () =
  let coalescers = Array.init n_workers (fun _ -> Progress.coalescer ()) in
  let trace = Pstm_obs.Recorder.trace obs and causal = Pstm_obs.Recorder.causal obs in
  { graph; costs; metrics; coalescers; coalescing; per_traverser; responders;
    accumulators = Memo.create (); check; mutation;
    obs_on = Pstm_obs.Recorder.enabled obs; trace; causal; on_event; live; slab; send; complete }

let launch t (q : q) =
  q.ext.launched <- true;
  for phase = 0 to Array.length q.ext.trackers - 1 do
    t.on_event "register" ~qid:q.qid ~phase
  done

let hop t ~qid ~name ~ts ~src cat = Pstm_obs.Causal.hop t.causal ~qid ~name ~ts ~src cat

let rec receive t ~at ~cz ~w (q : q) phase weight =
  let tracker = q.ext.trackers.(phase) in
  Metrics.(incr t.metrics Counter.tracker_updates);
  let cz = hop t ~qid:q.qid ~name:"tracker" ~ts:at ~src:cz Pstm_obs.Causal.Tracker in
  if not (Weight.is_zero weight) then t.on_event "receive" ~qid:q.qid ~phase;
  if t.obs_on then begin
    let acc = Weight.add (Progress.accumulated tracker) weight in
    Pstm_obs.Trace.instant t.trace ~cat:"progress" ~tid:(Engine.query_track q.qid)
      ~name:"tracker_receive" ~ts:at
      ~args:
        [
          ("phase", Pstm_obs.Trace.I phase);
          ("receipts", Pstm_obs.Trace.I (Progress.receipts tracker + 1));
          ("accumulated", Pstm_obs.Trace.I (acc :> int));
        ]
      ()
  end;
  (* Sanitizer: the tracker fires exactly when finished weights sum back
     to the root. Weight arriving afterwards means some share was
     counted twice — termination was detected early. *)
  if t.check && Progress.is_complete tracker && not (Weight.is_zero weight) then
    Engine.check_fail "async: query %d phase %d received weight %a after completion" q.qid phase
      Weight.pp weight;
  let progress_add = t.costs.Cluster.progress_add in
  match Progress.receive tracker weight with
  | Progress.Complete ->
    t.on_event "complete" ~qid:q.qid ~phase;
    Sim_time.add progress_add (phase_complete t ~at ~cz ~w q phase)
  | Progress.Pending ->
    if
      t.mutation = Some Mutation.Early_tracker_release
      && (not (Progress.is_complete tracker))
      && Progress.receipts tracker >= 2
    then begin
      (* Mutant: declare the phase done before Theorem 1's conservation
         sum closes. *)
      Progress.force_complete tracker;
      Sim_time.add progress_add (phase_complete t ~at ~cz ~w q phase)
    end
    else progress_add

and phase_complete t ~at ~cz ~w q phase =
  t.on_event "release" ~qid:q.qid ~phase;
  if t.obs_on then
    Pstm_obs.Trace.instant t.trace ~tid:(Engine.query_track q.qid) ~name:"phase_complete" ~ts:at
      ~args:[ ("phase", Pstm_obs.Trace.I phase) ]
      ();
  match Program.agg_of_phase q.program phase with
  | Some agg_step ->
    (* Pull the per-partition partials in (§III-C): one flush payload,
       one message per responder. They merge into an accumulator of the
       coordinator's own; a responder's partial stays in its memo,
       unchanged, until the query's cleanup recycles it. *)
    let agg =
      match (Program.step q.program agg_step).Step.op with
      | Step.Aggregate { agg; _ } -> agg
      | _ -> invalid_arg "Progress_tier: phase boundary is not an aggregate step"
    in
    q.ext.combine_step <- agg_step;
    q.ext.combine_received <- 0;
    q.ext.combine_acc <- Some (Memo.partial t.accumulators ~qid:q.qid ~label:agg_step t.graph agg);
    q.ext.combine_expected <- Array.length t.responders;
    let cz = hop t ~qid:q.qid ~name:"phase-complete" ~ts:at ~src:cz Pstm_obs.Causal.Tracker in
    let flush = P_agg_flush { agg_step } in
    let cost = ref Sim_time.zero in
    for i = 0 to Array.length t.responders - 1 do
      cost :=
        Sim_time.add !cost
          (t.send ~at ~src:w ~dst:t.responders.(i) ~kind:Metrics.Control_msg
             (msg t.slab ~qid:q.qid ~cz flush))
    done;
    !cost
  | None -> t.complete ~at ~cz ~w q

(* Ship [weight] to the query's tracker: locally, or as a progress
   message to its coordinator. *)
let report t ~at ~cz ~w (q : q) phase weight =
  if q.coordinator = w then receive t ~at ~cz ~w q phase weight
  else
    t.send ~at ~src:w ~dst:q.coordinator ~kind:Metrics.Progress_msg
      (progress t.slab ~qid:q.qid ~cz ~phase ~weight)

let finish_weight t ~at ~cz ~w (q : q) phase weight =
  if Weight.is_zero weight then Sim_time.zero
  else if t.coalescing then begin
    (* The coalescer merges weights from many executions; the flushed
       message inherits the context of the *last* contributor, which is
       the one the tracker was actually waiting on. *)
    Progress.coalesce t.coalescers.(w) ~qid:q.qid ~phase ~tag:cz weight;
    (* The "slightly higher per-traverser progress tracking overhead" of
       §V-B: the weight addition plus the local hash merge. The dataflow
       flavors track progress per operator scope instead and pay nothing
       per traverser. *)
    if t.per_traverser then
      Sim_time.add t.costs.Cluster.progress_add t.costs.Cluster.progress_coalesce
    else Sim_time.zero
  end
  else report t ~at ~cz ~w q phase weight

(* Coalesced weights ship when the worker idles or once enough have
   merged locally to justify a message (§IV-A: they ride along with
   buffer flushes, not with every death). *)
let flush_due t ~w = Progress.pending_additions t.coalescers.(w) >= 256

let flush t ~at ~w =
  let c = t.coalescers.(w) in
  let cost = ref Sim_time.zero in
  if not (Progress.is_empty c) then begin
    for i = 0 to Progress.drain_begin c - 1 do
      (* A cancelled query's weight is reclaimed, not tracked. *)
      match t.live (Progress.qid_at c i) with
      | None -> ()
      | Some q ->
        (* Coalescer dwell shows up as a Tracker segment: the flush node
           sits between the last contributing execution and the tracker
           receive (local) or the progress message (remote). *)
        let cz =
          hop t ~qid:q.qid ~name:"progress-flush" ~ts:at ~src:(Progress.tag_at c i)
            Pstm_obs.Causal.Tracker
        in
        cost :=
          Sim_time.add !cost
            (report t ~at ~cz ~w q (Progress.phase_at c i) (Progress.weight_at c i))
    done;
    Progress.drain_end c
  end;
  !cost

(* A responder's answer to an aggregate flush: its partial, to the
   coordinator. Collective leg: the coordinator waits for every partial,
   so the flush and partial hops classify as Barrier. *)
let respond t ~at ~w memo (q : q) ~agg_step ~cz =
  let partial =
    Memo.find_partial memo ~qid:q.qid ~label:agg_step ~absent:P_agg_empty (fun p -> P_agg_partial p)
  in
  let cz = hop t ~qid:q.qid ~name:"agg-flush" ~ts:at ~src:cz Pstm_obs.Causal.Barrier in
  t.send ~at ~src:w ~dst:q.coordinator ~kind:Metrics.Control_msg
    (msg t.slab ~qid:q.qid ~cz partial)

(* Recycle [q]'s accumulators. *)
let release_accumulators t (q : q) =
  q.ext.combine_acc <- None;
  Memo.clear_query t.accumulators q.qid

let combine t (q : q) payload =
  let s = q.ext in
  match s.combine_acc with
  | None -> invalid_arg "Progress_tier.combine: no combine in progress"
  | Some acc ->
    (match payload with
    | P_agg_partial p -> Aggregate.merge ~into:acc p
    | P_agg_empty -> ()
    | _ -> invalid_arg "Progress_tier.combine: not a partial");
    s.combine_received <- s.combine_received + 1;
    if s.combine_received < s.combine_expected then None
    else begin
      (* All partials in: finalize and start the next phase. *)
      let regs = Exec.continuation t.graph q.program ~agg_step:s.combine_step s.combine_acc in
      s.combine_step <- -1;
      release_accumulators t q;
      Some regs
    end

(* The scoped reclaim of progress bookkeeping: open trackers time out,
   and weight merged but not yet flushed will never reach a tracker. *)
let cancel t (q : q) =
  release_accumulators t q;
  if q.ext.launched then
    Array.iteri
      (fun phase tr -> if not (Progress.is_complete tr) then t.on_event "timeout" ~qid:q.qid ~phase)
      q.ext.trackers;
  Array.iter (fun c -> Progress.discard_query c ~qid:q.qid) t.coalescers

(* No weight may be stranded in a coalescer: parked weight here means
   some (qid, phase) escaped both the flush path and the scoped reclaim
   at its terminal transition. *)
let check_drained t =
  Array.iteri
    (fun w c ->
      if not (Progress.is_empty c) then
        Engine.check_fail "async: worker %d holds unflushed coalesced weight at finish" w)
    t.coalescers
