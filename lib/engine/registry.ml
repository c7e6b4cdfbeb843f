(* Engine registry: every engine behind the uniform {!Engine.S} surface.

   The concrete engines keep richer native signatures (async options,
   BSP profiles, topology configs); the registry wraps each as a
   first-class module with the topology fixed at [make] time, so the CLI
   and benchmarks dispatch purely by name. This module sits outside
   engine.ml because the engines themselves depend on Engine. *)

(* The oracle has no clock or cluster; its service handle runs a private
   event queue where every query completes the instant it launches
   (zero metrics, queue wait still counts from [at]). A cancellation can
   therefore only catch a query whose arrival lies in the future; the
   per-query [deadline] never fires (nothing outlives its own instant). *)
let local_start ?common ~graph () =
  let events = Event_queue.create () in
  let queries : (int, Engine.query_report) Hashtbl.t = Hashtbl.create 16 in
  let next_qid = ref 0 in
  let on_terminal : (int -> Engine.outcome -> unit) ref = ref (fun _ _ -> ()) in
  let query qid =
    match Hashtbl.find_opt queries qid with
    | Some q -> q
    | None -> Fmt.invalid_arg "local: unknown query %d" qid
  in
  let set_outcome qid outcome =
    let q = query qid in
    if q.Engine.outcome = Engine.Timed_out then begin
      Hashtbl.replace queries qid { q with Engine.outcome };
      !on_terminal qid outcome
    end
  in
  let submit (sub : Engine.submission) =
    let qid = !next_qid in
    incr next_qid;
    (* Pending state is encoded as [Timed_out] until the launch event
       flips it; only the final state ever leaves this handle. *)
    Hashtbl.add queries qid
      {
        Engine.qid;
        name = Program.name sub.Engine.program;
        tenant = sub.Engine.tenant;
        priority = sub.Engine.priority;
        submitted = sub.Engine.at;
        outcome = Engine.Timed_out;
        rows = [];
      };
    let at = max sub.Engine.at (Event_queue.now events) in
    Event_queue.schedule_at events ~time:at ~tag:0 (fun () ->
        let q = query qid in
        if q.Engine.outcome = Engine.Timed_out then begin
          let rows = Local_engine.run ?common graph sub.Engine.program in
          Hashtbl.replace queries qid
            { q with Engine.outcome = Engine.Completed at; rows };
          !on_terminal qid (Engine.Completed at)
        end);
    qid
  in
  {
    Engine.sh_name = "local";
    sh_submit = submit;
    sh_cancel =
      (fun ~qid ~at ->
        let t = max at (Event_queue.now events) in
        Event_queue.schedule_at events ~time:t ~tag:0 (fun () -> set_outcome qid Engine.Cancelled));
    sh_at =
      (fun t f -> Event_queue.schedule_at events ~time:(max t (Event_queue.now events)) ~tag:0 f);
    sh_now = (fun () -> Event_queue.now events);
    sh_on_terminal = (fun f -> on_terminal := f);
    sh_drive =
      (fun ~until ->
        match until with
        | None -> Event_queue.run_to_completion events
        | Some t -> Event_queue.run_until events ~time:t);
    sh_finish =
      (fun () ->
        let reports = Array.init !next_qid query in
        let makespan =
          Array.fold_left
            (fun acc q ->
              match Engine.completed_at q with None -> acc | Some c -> max acc c)
            Sim_time.zero reports
        in
        {
          Engine.engine = "local";
          queries = reports;
          makespan;
          metrics = Metrics.create ();
          events = 0;
          worker_busy = [| Sim_time.zero |];
        })
  }

let make ?(cluster_config = Cluster.default_config)
    ?(channel_config = Channel.default_config) () :
    (string * (module Engine.S)) list =
  let async_flavor flavor : (module Engine.S) =
    (module struct
      let name = Async_engine.flavor_name flavor

      let options = { Async_engine.default_options with Async_engine.flavor }

      let run ?common ~graph submissions =
        Async_engine.run ~options ?common ~cluster_config ~channel_config ~graph submissions

      let start ?common ~graph () =
        Async_engine.create ~options ?common ~cluster_config ~channel_config ~graph ()
    end)
  in
  let bsp profile : (module Engine.S) =
    (module struct
      let name = Bsp_engine.profile_name profile

      let run ?common ~graph submissions =
        Bsp_engine.run ~profile ?common ~cluster_config ~graph submissions

      let start ?common ~graph () = Bsp_engine.create ~profile ?common ~cluster_config ~graph ()
    end)
  in
  let single_node : (module Engine.S) =
    (module struct
      let name = "single-node"
      let workers = cluster_config.Cluster.n_nodes * cluster_config.Cluster.workers_per_node

      let run ?common ~graph submissions =
        Single_node_engine.run ?common ~workers ~base_config:cluster_config ~graph submissions

      let start ?common ~graph () =
        Single_node_engine.start ?common ~workers ~base_config:cluster_config ~graph ()
    end)
  in
  let local : (module Engine.S) =
    (module struct
      let name = "local"
      let start = local_start
      let run ?common ~graph submissions = Engine.run_via_start start ?common ~graph submissions
    end)
  in
  [
    ("graphdance", async_flavor Async_engine.Graphdance);
    ("banyan-like", async_flavor Async_engine.Banyan_like);
    ("gaia-like", async_flavor Async_engine.Gaia_like);
    ("bsp", bsp Bsp_engine.Ablation);
    ("tigergraph-role", bsp Bsp_engine.Tigergraph_role);
    ("single-node", single_node);
    ("local", local);
  ]

let default = make ()

let names ?(registry = default) () = List.map fst registry

(* "async" survives as an alias for the flagship engine. *)
let resolve_name name = match name with "async" -> "graphdance" | n -> n

let find ?(registry = default) name =
  List.assoc_opt (resolve_name name) registry

let find_exn ?(registry = default) name =
  match find ~registry name with
  | Some e -> e
  | None ->
    invalid_arg
      (Fmt.str "unknown engine %S (expected one of: %s)" name
         (String.concat ", " (names ~registry ())))
