(* Canonical workloads for the schedule explorer.

   Each scenario is small enough that one engine run takes well under a
   millisecond of wall clock — the explorer runs dozens to hundreds of
   them — yet still exercises the protocol machinery its mutants corrupt:
   the chaos scenario's drop/duplicate faults force retransmission and
   dedup traffic, the migration scenario's aggressive refine interval
   forces mid-query vertex moves with stashed traversers.

   The graph, compiled programs and oracle rows are computed lazily once
   per scenario and shared across schedules: engines treat the graph as
   read-only, and the oracle has no clock, so sharing cannot leak state
   between runs. *)

open Pstm_engine
open Pstm_query
module Explore = Pstm_analysis.Explore

type scenario = {
  sc_name : string;
  sc_describe : string;
  sc_cluster : Cluster.config;
  sc_faults : Faults.spec option;
  sc_options : Async_engine.options;
  sc_graph : Graph.t Lazy.t;
  sc_subs : Engine.submission array Lazy.t;
  sc_oracle : string array Lazy.t; (* expected sorted rows, per query *)
}

let name s = s.sc_name
let describe s = s.sc_describe

let show_rows rows =
  Fmt.str "%a"
    (Fmt.list ~sep:(Fmt.any "@.") (Fmt.array ~sep:(Fmt.any "|") Value.pp))
    (Engine.sorted_rows rows)

let fingerprint (r : Engine.report) =
  Fmt.str "%a"
    (Fmt.array ~sep:(Fmt.any ";") (fun ppf (q : Engine.query_report) ->
         Fmt.pf ppf "%d:%s:%s:[%s]" q.Engine.qid q.Engine.name
           (match q.Engine.outcome with
           | Engine.Completed _ -> "ok"
           | o -> String.uppercase_ascii (Engine.outcome_name o))
           (show_rows q.Engine.rows)))
    r.Engine.queries

(* --- Scenario definitions ----------------------------------------------- *)

let tiny = lazy (Pstm_gen.Datasets.load Pstm_gen.Datasets.tiny)

let khop graph ~start ~hops =
  Compile.compile ~name:"khop" graph
    Dsl.(v_lookup ~key:"id" (int start) |> repeat ~dir:Graph.Out ~times:hops () |> count |> build)

let oracle_of graph subs =
  lazy
    (Array.map
       (fun (s : Engine.submission) ->
         show_rows (Local_engine.run (Lazy.force graph) s.Engine.program))
       (Lazy.force subs))

let make ~name ~describe ?faults ?(options = Async_engine.default_options) ~cluster subs =
  {
    sc_name = name;
    sc_describe = describe;
    sc_cluster = cluster;
    sc_faults = faults;
    sc_options = options;
    sc_graph = tiny;
    sc_subs = subs;
    sc_oracle = oracle_of tiny subs;
  }

let small_cluster = { Cluster.default_config with Cluster.n_nodes = 3; workers_per_node = 3 }

let khop_scenario =
  make ~name:"khop" ~describe:"single 3-hop count on the tiny dataset, no faults"
    ~cluster:small_cluster
    (lazy [| Engine.submit (khop (Lazy.force tiny) ~start:1 ~hops:3) |])

let chaos_scenario =
  make ~name:"chaos"
    ~describe:"3-hop count under drop/duplicate/delay faults (retransmit + dedup traffic)"
    ~cluster:small_cluster
    ~faults:
      {
        Faults.none with
        Faults.seed = 0xC0DE;
        drop = 0.1;
        duplicate = 0.15;
        delay_prob = 0.2;
        delay = Sim_time.us 150;
      }
    (lazy [| Engine.submit (khop (Lazy.force tiny) ~start:1 ~hops:3) |])

let migration_cluster = { Cluster.default_config with Cluster.n_nodes = 2; workers_per_node = 4 }

(* Aggressive knobs so refinement rounds fire mid-query on the tiny
   workload (mirrors the repartition chaos suite). *)
let aggressive_adaptive =
  {
    Async_engine.default_options with
    Async_engine.partition = Partition.Adaptive;
    adaptive =
      { Async_engine.refine_interval = Sim_time.us 5; min_traffic = 16 };
  }

let migration_scenario =
  let starts = [| 1; 2; 3; 5 |] in
  let waves = 3 in
  make ~name:"migration"
    ~describe:"k-hop waves under aggressive adaptive repartitioning (mid-query vertex moves)"
    ~cluster:migration_cluster ~options:aggressive_adaptive
    (lazy
      (Array.init
         (waves * Array.length starts)
         (fun i ->
           Engine.submit ~at:(Sim_time.us (i * 10))
             (khop (Lazy.force tiny) ~start:starts.(i mod Array.length starts) ~hops:2))))

let scenarios = [ khop_scenario; chaos_scenario; migration_scenario ]
let default = khop_scenario

let find n = List.find_opt (fun s -> String.equal s.sc_name n) scenarios

let for_mutation = function
  | Mutation.Skip_dedup | Mutation.No_retransmit -> chaos_scenario
  | Mutation.Drop_stash_drain -> migration_scenario
  | Mutation.Early_tracker_release -> khop_scenario

(* --- Runners ------------------------------------------------------------- *)

let common ?mutation s chooser =
  {
    Engine.Common.default with
    Engine.Common.check = true;
    faults = s.sc_faults;
    chooser;
    mutation;
  }

(* Beyond the engine's own sanitizers and monitors (which raise
   [Check_violation] mid-run), the harness asserts the two end-to-end
   properties of ISSUE Theorem 1: every query terminates, and its rows
   equal the sequential oracle's. *)
let judge s (report : Engine.report) =
  let oracle = Lazy.force s.sc_oracle in
  let violation = ref None in
  Array.iteri
    (fun i (q : Engine.query_report) ->
      if !violation = None then
        match Engine.completed_at q with
        | None ->
          violation := Some (Fmt.str "query %d (%s) did not complete" i q.Engine.name)
        | Some _ ->
          let got = show_rows q.Engine.rows in
          if not (String.equal got oracle.(i)) then
            violation :=
              Some
                (Fmt.str "query %d (%s) diverged from the oracle: got [%s], want [%s]" i
                   q.Engine.name got oracle.(i)))
    report.Engine.queries;
  { Explore.fingerprint = fingerprint report; violation = !violation }

let runner ?mutation s : Explore.runner =
 fun chooser ->
  match
    Async_engine.run ~options:s.sc_options
      ~common:(common ?mutation s chooser)
      ~cluster_config:s.sc_cluster ~channel_config:Channel.default_config
      ~graph:(Lazy.force s.sc_graph) (Lazy.force s.sc_subs)
  with
  | report -> judge s report
  | exception Engine.Check_violation msg -> { Explore.fingerprint = ""; violation = Some msg }

let engine_runner ?mutation (module E : Engine.S) s : Explore.runner =
 fun chooser ->
  match
    E.run ~common:(common ?mutation s chooser) ~graph:(Lazy.force s.sc_graph)
      (Lazy.force s.sc_subs)
  with
  | report -> judge s report
  | exception Engine.Check_violation msg -> { Explore.fingerprint = ""; violation = Some msg }
