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
  let life =
    Lifecycle.create ~name:"local" ~n_workers:1
      ~now:(fun () -> Event_queue.now events)
      ~schedule:(fun time f -> Event_queue.schedule_at events ~time ~tag:0 f)
      ()
  in
  let launch at (q : unit Lifecycle.query) =
    List.iter (Vec.push q.rows) (Local_engine.run ?common graph q.program);
    Lifecycle.end_query life ~at q (Engine.Completed at) ignore
  in
  let submit s = (Lifecycle.submit ~launch life s ()).Lifecycle.qid in
  let finish () =
    let makespan = ref Sim_time.zero in
    Lifecycle.iter life (fun q ->
        match q.Lifecycle.outcome with
        | Some (Engine.Completed c) -> makespan := max !makespan c
        | _ -> ());
    Lifecycle.report life ~makespan:!makespan ~metrics:(Metrics.create ()) ~events:0
      ~worker_busy:[| Sim_time.zero |]
  in
  Lifecycle.handle life ~submit
    ~terminate:(fun q outcome -> Lifecycle.end_query life q outcome ignore)
    ~drive:(Lifecycle.drive life events) ~finish

let make ?(cluster_config = Cluster.default_config)
    ?(channel_config = Channel.default_config) () : (string * (module Engine.S)) list =
  let engine name
      (start : ?common:Engine.Common.t -> graph:Graph.t -> unit -> Engine.service_handle) :
      (module Engine.S) =
    (module struct
      let name = name
      let start = start
      let run ?common ~graph submissions = Engine.run_via_start start ?common ~graph submissions
    end)
  in
  let async flavor =
    let options = { Async_engine.default_options with Async_engine.flavor } in
    engine (Async_engine.flavor_name flavor) (fun ?common ~graph () ->
        Async_engine.create ~options ?common ~cluster_config ~channel_config ~graph ())
  in
  let bsp profile =
    engine (Bsp_engine.profile_name profile) (fun ?common ~graph () ->
        Bsp_engine.create ~profile ?common ~cluster_config ~graph ())
  in
  let workers = cluster_config.Cluster.n_nodes * cluster_config.Cluster.workers_per_node in
  [
    ("graphdance", async Async_engine.Graphdance);
    ("banyan-like", async Async_engine.Banyan_like);
    ("gaia-like", async Async_engine.Gaia_like);
    ("bsp", bsp Bsp_engine.Ablation);
    ("tigergraph-role", bsp Bsp_engine.Tigergraph_role);
    ( "single-node",
      engine "single-node"
        (Single_node_engine.start ~memory_capacity:Single_node_engine.default_memory_capacity
           ~workers ~base_config:cluster_config) );
    ("local", engine "local" local_start);
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
