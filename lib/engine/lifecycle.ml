(* The query lifecycle every engine session shares (see lifecycle.mli).
   Each query's engine-specific state rides in its [ext]. *)

module Protocol = Pstm_analysis.Protocol

type 'a query = {
  qid : int;
  program : Program.t;
  coordinator : int;
  tenant : int;
  priority : int;
  submitted : Sim_time.t;
  deadline_at : Sim_time.t option;
  mutable outcome : Engine.outcome option;
  rows : Value.t array Vec.t;
  touched : Bitset.t;
  ext : 'a;
}

type 'a t = {
  name : string;
  n_workers : int;
  now : unit -> Sim_time.t;
  schedule : Sim_time.t -> (unit -> unit) -> unit;
  common : Engine.Common.t;
  obs_on : bool;
  trace : Pstm_obs.Trace.t;
  (* Indexed by qid: qids are dense and never removed, and each entry's
     [Some] is built once, at submission, so a lookup allocates nothing. *)
  queries : 'a query option Vec.t;
  (* The queries not yet terminal, in qid order (the same [Some]s);
     ended ones drop out at the next [iter_live] walk. A session that
     never walks it (async, oracle) lets it grow like [queries]. *)
  live_set : 'a query option Vec.t;
  mutable monitors : Protocol.monitor list;
  mutable terminate : 'a query -> Engine.outcome -> unit;
  mutable on_terminal : int -> Engine.outcome -> unit;
}

let create ~name ~n_workers ?(common = Engine.Common.default) ~now ~schedule () =
  let obs = common.Engine.Common.obs in
  { name; n_workers; now; schedule; common; obs_on = Pstm_obs.Recorder.enabled obs;
    trace = Pstm_obs.Recorder.trace obs; queries = Vec.create ~dummy:None;
    live_set = Vec.create ~dummy:None; monitors = [];
    terminate = (fun _ _ -> ()); on_terminal = (fun _ _ -> ()) }

let find t qid = if qid >= 0 && qid < Vec.length t.queries then Vec.get t.queries qid else None

let query t qid =
  match find t qid with Some q -> q | None -> Fmt.invalid_arg "%s: unknown query %d" t.name qid

let is_live q = match q.outcome with None -> true | Some _ -> false
let live t qid = match find t qid with Some q as l when is_live q -> l | _ -> None

let iter t f =
  for qid = 0 to Vec.length t.queries - 1 do
    f (query t qid)
  done

(* Walk the live set in qid order, calling [f] on each query still live
   when reached, and compact the set. Queries [f] submits are kept for
   the next walk, not visited. *)
let iter_live t f =
  let n = Vec.length t.live_set in
  let kept = ref 0 in
  for i = 0 to n - 1 do
    match Vec.get t.live_set i with
    | Some q as entry when is_live q ->
      f q;
      if is_live q then begin
        Vec.set t.live_set !kept entry;
        incr kept
      end
    | _ -> ()
  done;
  let m = Vec.length t.live_set in
  for i = n to m - 1 do
    Vec.set t.live_set (!kept + i - n) (Vec.get t.live_set i)
  done;
  Vec.truncate t.live_set (!kept + m - n)

let at t time f = t.schedule (max time (t.now ())) f

let submit ?launch t (s : Engine.submission) ext =
  let qid = Vec.length t.queries in
  let q =
    {
      qid;
      program = s.Engine.program;
      coordinator = qid mod t.n_workers;
      tenant = s.Engine.tenant;
      priority = s.Engine.priority;
      submitted = s.Engine.at;
      deadline_at = Option.map (Sim_time.add s.Engine.at) s.Engine.deadline;
      outcome = None;
      rows = Vec.create ~dummy:[||];
      touched = Bitset.create t.n_workers;
      ext;
    }
  in
  let entry = Some q in
  Vec.push t.queries entry;
  Vec.push t.live_set entry;
  Option.iter
    (fun launch ->
      (* A submission whose arrival is already in the past (a service
         dispatching a queued query) launches immediately; latency still
         measures from [s.at], so queue wait counts against the SLO. *)
      let launch_at = max (t.now ()) s.Engine.at in
      at t launch_at (fun () -> if is_live q then launch launch_at q);
      (* The query's own latency budget: past [at + deadline] it is cut
         off as Timed_out — the scoped form of the run-level deadline. *)
      Option.iter
        (fun d -> at t (max launch_at d) (fun () -> t.terminate q Engine.Timed_out))
        q.deadline_at)
    launch;
  q

let end_query t ?at q outcome release =
  if is_live q then begin
    q.outcome <- Some outcome;
    if t.obs_on then begin
      let ts = match at with Some at -> at | None -> t.now () in
      let tid = Engine.query_track q.qid in
      match outcome with
      | Engine.Completed _ ->
        Pstm_obs.Trace.instant t.trace ~tid ~name:"complete" ~ts
          ~args:
            [
              ("rows", Pstm_obs.Trace.I (Vec.length q.rows));
              ("workers_touched", Pstm_obs.Trace.I (Bitset.count q.touched));
            ]
          ()
      | o -> Pstm_obs.Trace.instant t.trace ~tid ~name:(Engine.outcome_name o) ~ts ()
    end;
    release ();
    t.on_terminal q.qid outcome
  end

(* Walks the qids present when the sweep starts (a terminal callback may
   submit more). *)
let sweep t =
  for qid = 0 to Vec.length t.queries - 1 do
    let q = query t qid in
    if is_live q then t.terminate q Engine.Timed_out
  done

let stop t ~until =
  match (until, t.common.Engine.Common.deadline) with
  | None, None -> None
  | None, Some s | Some s, None -> Some s
  | Some u, Some d -> Some (min u d)

let drive t events ~until =
  match stop t ~until with
  | None -> Event_queue.run_to_completion events
  | Some time -> Event_queue.run_until events ~time

let monitor t spec =
  if not t.common.Engine.Common.check then fun ~key:_ _ -> None
  else begin
    let compiled = Lazy.force spec in
    let mon = Protocol.monitor compiled in
    t.monitors <- mon :: t.monitors;
    fun ~key name -> Protocol.step mon ~key ~msg:(Protocol.msg compiled name)
  end

let check_end t engine ~cut ~wedged memos =
  if t.common.Engine.Common.check then begin
    if not cut then begin
      iter t (fun q ->
          if is_live q then
            Engine.check_fail "%s: query %d never terminated (%s)" engine q.qid (wedged q));
      List.iter
        (fun mon ->
          match Protocol.finish mon with
          | None -> ()
          | Some why -> Engine.check_fail "%s: %s" engine why)
        (List.rev t.monitors)
    end;
    Array.iteri
      (fun w memo ->
        let n = Memo.live_entries memo in
        if n > 0 then
          Engine.check_fail "%s: worker %d holds %d memo entries after all queries completed"
            engine w n)
      memos
  end

let report t ~makespan ~metrics ~events ~worker_busy =
  (* Surface ring truncation: a trace that silently dropped events would
     otherwise read as a complete record. *)
  if t.obs_on then Metrics.(set metrics Counter.trace_dropped (Pstm_obs.Trace.dropped t.trace));
  let report qid =
    let q = query t qid in
    {
      Engine.qid;
      name = Program.name q.program;
      tenant = q.tenant;
      priority = q.priority;
      submitted = q.submitted;
      outcome = (match q.outcome with Some o -> o | None -> Engine.Timed_out);
      rows = Vec.to_list q.rows;
    }
  in
  let queries = Array.init (Vec.length t.queries) report in
  { Engine.engine = t.name; queries; makespan; metrics; events; worker_busy }

let handle t ~submit ~terminate ~drive ~finish =
  t.terminate <- terminate;
  {
    Engine.sh_name = t.name;
    sh_submit = submit;
    sh_cancel =
      (fun ~qid ~at:time -> at t time (fun () -> terminate (query t qid) Engine.Cancelled));
    sh_at = at t;
    sh_now = t.now;
    sh_on_terminal = (fun f -> t.on_terminal <- f);
    sh_drive = drive;
    sh_finish = finish;
  }
