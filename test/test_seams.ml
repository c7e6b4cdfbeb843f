(* Unit tests of the async engine's seams — vertex migration, the
   progress tier and the query lifecycle — driven directly, outside any
   simulation: no cluster, no event queue, sends captured in a list. *)

open Pstm_engine
open Pstm_query

let qcheck = QCheck_alcotest.to_alcotest

let graph =
  lazy
    (let b = Builder.create () in
     for i = 0 to 7 do
       ignore (Builder.add_vertex b ~label:"v" ~props:[ ("id", Value.Int i) ] ())
     done;
     for i = 0 to 7 do
       ignore (Builder.add_edge b ~src:i ~label:"link" ~dst:((i + 1) mod 8) ())
     done;
     Builder.build b)

let program () =
  Compile.compile ~name:"seam" (Lazy.force graph)
    Dsl.(v_lookup ~key:"id" (int 1) |> out_ "link" |> dedup |> build)

let costs = Cluster.default_costs

(* Every fixture builds its messages here; none is consumed. *)
let slab = Payload.slab ()

(* A send stub that records every message (destination, handle) and
   charges 1ns. *)
let outbox () =
  let sent = ref [] in
  let send ~at:_ ~src:_ ~dst ~kind:_ h =
    sent := (dst, h) :: !sent;
    Sim_time.ns 1
  in
  (sent, send)

let payloads sent = List.map (fun (dst, h) -> (dst, Payload.payload slab h)) !sent

(* --- Migration --- *)

let dedup_step program =
  let rec find i =
    match (Program.step program i).Step.op with Step.Dedup _ -> i | _ -> find (i + 1)
  in
  find 0

let migration () =
  let graph = Lazy.force graph in
  let partition =
    Partition.create ~strategy:Partition.Adaptive ~n_parts:4 ~n_vertices:(Graph.n_vertices graph) ()
  in
  let cost = Cost_model.create ~costs ~shared_state:false ~workers_per_node:4 ~swapping:false in
  let sent, send = outbox () in
  let mig =
    Migration.create ~graph ~partition ~adaptive:true ~refine_interval:(Sim_time.us 1)
      ~min_traffic:1 ~cost ~metrics:(Metrics.create ()) ~live:(fun _ -> true) ~slab ~send ()
  in
  (partition, sent, mig)

let group travs =
  let g = Travs.create () in
  List.iter
    (fun (t : Traverser.t) ->
      Travs.push g ~vertex:t.vertex ~step:t.step ~weight:t.weight ~regs:t.regs)
    travs;
  (g, Vec.make ~dummy:(-1) (List.length travs) (-1))

let test_gate () =
  let program = program () in
  let step = dedup_step program in
  let partition, sent, mig = migration () in
  let n_registers = Program.n_registers program in
  let trav v = Traverser.make ~vertex:v ~step ~weight:Weight.root ~n_registers in
  let owner = Partition.owner partition 3 in
  let gate ~w travs =
    let travs, czs = group travs in
    ignore (Migration.gate mig ~at:Sim_time.zero ~w ~qid:0 program travs czs : Sim_time.t);
    Travs.length travs
  in
  Alcotest.(check int) "owner runs it" 1 (gate ~w:owner [ trav 3 ]);
  Alcotest.(check int) "nothing sent" 0 (List.length !sent);
  let dst = (owner + 1) mod 4 in
  ignore (Migration.migrate mig ~at:Sim_time.zero ~src:owner ~cz:(-1) ~vertex:3 ~dst : Sim_time.t);
  (match payloads sent with
  | [ (o, Payload.P_migrate { vertex = 3; dst = d }) ] ->
    Alcotest.(check int) "order goes to the old owner" owner o;
    Alcotest.(check int) "toward the new owner" dst d
  | _ -> Alcotest.fail "expected one migration order");
  sent := [];
  Alcotest.(check int) "old owner forwards" 0 (gate ~w:owner [ trav 3 ]);
  (match !sent with
  | [ (d, h) ] when Payload.payload slab h = Payload.P_trav ->
    Alcotest.(check int) "to the new owner" dst d;
    Alcotest.(check int) "the same traverser" 3 (Payload.vertex slab h)
  | _ -> Alcotest.fail "expected one forward");
  sent := [];
  Alcotest.(check int) "new owner stashes" 0 (gate ~w:dst [ trav 3 ]);
  Alcotest.(check int) "a stash sends nothing" 0 (List.length !sent);
  Alcotest.(check int) "other vertices run" 1 (gate ~w:(Partition.owner partition 5) [ trav 5 ])

(* Allocation guard for the gate under adaptive repartitioning: a warm
   gate over a Dedup step keyed by the vertex, every traverser owned by
   the gating worker, reads the key vertex as an int and keeps the group
   in place. 1 000 gates of 16 traversers: measured 0 words; 4 words per
   traverser when the key came back as a boxed [Value.Vertex] in an
   [int option]. *)
let test_warm_gate_allocates_nothing () =
  let program = program () in
  let step = dedup_step program in
  let partition, sent, mig = migration () in
  let n_registers = Program.n_registers program in
  let w = Partition.owner partition 3 in
  let mine = List.filter (fun v -> Partition.owner partition v = w) (List.init 8 Fun.id) in
  let travs, czs =
    group
      (List.init 16 (fun i ->
           let vertex = List.nth mine (i mod List.length mine) in
           Traverser.make ~vertex ~step ~weight:Weight.root ~n_registers))
  in
  let gate () = ignore (Migration.gate mig ~at:Sim_time.zero ~w ~qid:0 program travs czs : Sim_time.t) in
  gate ();
  Gc.minor ();
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    gate ()
  done;
  let words = int_of_float (Gc.minor_words () -. before) in
  Alcotest.(check int) "every traverser kept" 16 (Travs.length travs);
  Alcotest.(check int) "nothing sent" 0 (List.length !sent);
  if words > 0 then Alcotest.failf "1 000 warm gates of 16 traversers allocated %d words (bound 0)" words

let test_migrates_once () =
  let partition, sent, mig = migration () in
  let owner = Partition.owner partition 2 in
  let move dst = Migration.migrate mig ~at:Sim_time.zero ~src:0 ~cz:(-1) ~vertex:2 ~dst in
  let first = (owner + 1) mod 4 in
  Alcotest.(check bool) "first order costs" true (Sim_time.compare (move first) Sim_time.zero > 0);
  Alcotest.(check int) "in flight: no second move" 0 (Sim_time.to_ns (move ((owner + 2) mod 4)));
  let tasks = Ring.create ~dummy:(-1) in
  ignore
    (Migration.handle mig ~at:Sim_time.zero ~w:first (Memo.create ()) tasks ~cz:(-1)
       (Payload.P_migrate_data { vertex = 2; entries = [] })
      : Sim_time.t);
  Alcotest.(check int) "installed: still no second move" 0 (Sim_time.to_ns (move owner));
  Alcotest.(check int) "owner stays" first (Partition.owner partition 2);
  Alcotest.(check int) "one order sent" 1 (List.length !sent)

let test_stash_drains_in_order () =
  let program = program () in
  let step = dedup_step program in
  let partition, _, mig = migration () in
  let dst = (Partition.owner partition 4 + 1) mod 4 in
  ignore (Migration.migrate mig ~at:Sim_time.zero ~src:0 ~cz:(-1) ~vertex:4 ~dst : Sim_time.t);
  let weights = Weight.split (Prng.create 3) Weight.root ~n:3 in
  let travs =
    Array.to_list
      (Array.map
         (fun weight ->
           Traverser.make ~vertex:4 ~step ~weight ~n_registers:(Program.n_registers program))
         weights)
  in
  List.iter
    (fun t ->
      let travs, czs = group [ t ] in
      ignore (Migration.gate mig ~at:Sim_time.zero ~w:dst ~qid:0 program travs czs : Sim_time.t))
    travs;
  let tasks = Ring.create ~dummy:(-1) in
  ignore
    (Migration.handle mig ~at:Sim_time.zero ~w:dst (Memo.create ()) tasks ~cz:(-1)
       (Payload.P_migrate_data { vertex = 4; entries = [] })
      : Sim_time.t);
  let drained = ref [] in
  while not (Ring.is_empty tasks) do
    let h = Ring.pop tasks in
    match Payload.payload slab h with
    | Payload.P_trav -> drained := Payload.weight slab h :: !drained
    | _ -> Alcotest.fail "only traversers drain"
  done;
  Alcotest.(check int) "every parked traverser" 3 (List.length !drained);
  Alcotest.(check bool) "in arrival order" true
    (List.for_all2 Weight.equal (Array.to_list weights) (List.rev !drained))

(* --- Progress tier --- *)

let lifecycle () =
  Lifecycle.create ~name:"seams" ~n_workers:2 ~now:(fun () -> Sim_time.zero)
    ~schedule:(fun _ f -> f ())
    ()

let tier ?(completed = ref 0) life =
  let sent, send = outbox () in
  let tier =
    Progress_tier.create ~graph:(Lazy.force graph) ~costs ~metrics:(Metrics.create ()) ~n_workers:2
      ~coalescing:true ~per_traverser:true ~responders:[| 0; 1 |] ~live:(Lifecycle.live life)
      ~slab ~send
      ~complete:(fun ~at:_ ~cz:_ ~w:_ _ ->
        incr completed;
        Sim_time.zero)
      ()
  in
  (sent, tier)

let submit life =
  let program = program () in
  Lifecycle.submit life (Engine.submit program) (Progress_tier.state program)

let progress_weights sent =
  List.filter_map
    (fun (_, h) ->
      match Payload.payload slab h with
      | Payload.P_progress -> Some (Payload.qid slab h, Payload.weight slab h)
      | _ -> None)
    !sent

let test_flush_conserves () =
  let life = lifecycle () in
  let completed = ref 0 in
  let sent, tier = tier ~completed life in
  let local = submit life in
  let remote = submit life in
  (* [local] is coordinated by worker 0, [remote] by worker 1. *)
  let shares = Weight.split (Prng.create 11) Weight.root ~n:4 in
  Array.iter
    (fun w ->
      let finish q = Progress_tier.finish_weight tier ~at:Sim_time.zero ~cz:(-1) ~w:0 q 0 w in
      ignore (finish remote : Sim_time.t);
      ignore (finish local : Sim_time.t))
    shares;
  Alcotest.(check int) "nothing before the flush" 0 (List.length !sent);
  ignore (Progress_tier.flush tier ~at:Sim_time.zero ~w:0 : Sim_time.t);
  (match progress_weights sent with
  | [ (qid, w) ] ->
    Alcotest.(check int) "one message, to the remote query" remote.Lifecycle.qid qid;
    Alcotest.(check bool) "carrying the coalesced weight" true (Weight.equal w Weight.root)
  | l -> Alcotest.failf "expected one progress message, got %d" (List.length l));
  Alcotest.(check int) "the local tracker saw the root: query done" 1 !completed;
  Alcotest.(check int) "a second flush is empty" 0
    (Sim_time.to_ns (Progress_tier.flush tier ~at:Sim_time.zero ~w:0))

let test_cancelled_weight_dropped () =
  let life = lifecycle () in
  let sent, tier = tier life in
  let _ = submit life in
  (* Coordinated by worker 1, finished on worker 0: the weight must ship. *)
  let q = submit life in
  let finish () =
    ignore
      (Progress_tier.finish_weight tier ~at:Sim_time.zero ~cz:(-1) ~w:0 q 0
         (Weight.split (Prng.create 5) Weight.root ~n:2).(0)
        : Sim_time.t)
  in
  finish ();
  Lifecycle.end_query life q Engine.Cancelled (fun () -> Progress_tier.cancel tier q);
  ignore (Progress_tier.flush tier ~at:Sim_time.zero ~w:0 : Sim_time.t);
  finish ();
  ignore (Progress_tier.flush tier ~at:Sim_time.zero ~w:0 : Sim_time.t);
  Alcotest.(check int) "no weight of a cancelled query ships" 0
    (List.length (progress_weights sent));
  Progress_tier.check_drained tier

(* The aggregate combine of §III-C, driven end to end through the tier:
   the coordinator's tracker completes, the flush goes to both
   responders, each answers from its memo, and the answers merge into an
   accumulator of the coordinator's own. A responder's partial stays in
   its memo until the query's cleanup, so the combine must read it and
   leave it as it was; the accumulator is recycled between queries, so
   the second query (one responder holding nothing) must not see the
   first one's pairs. Ids 0-7 on a ring: the top-2 by id of the given
   vertices, best first. *)
let test_combine_leaves_partials () =
  let g = Lazy.force graph in
  let program =
    Compile.compile ~name:"seam-top" g
      Dsl.(v_lookup ~key:"id" (int 1) |> out_ "link" |> top_k "id" 2 |> build)
  in
  let agg_step = Option.get (Program.agg_of_phase program 0) in
  let agg, reg =
    match (Program.step program agg_step).Step.op with
    | Step.Aggregate { agg; reg } -> (agg, reg)
    | _ -> Alcotest.fail "phase 0 does not end in an aggregate"
  in
  let life = lifecycle () in
  let sent, tier = tier life in
  let memos = [| Memo.create (); Memo.create () |] in
  let query feeds =
    let q = Lifecycle.submit life (Engine.submit program) (Progress_tier.state program) in
    let regs = Array.make (Program.n_registers program) Value.Null in
    Array.iteri
      (fun w vertices ->
        List.iter
          (fun vertex ->
            Aggregate.accumulate agg (Memo.partial memos.(w) ~qid:q.qid ~label:agg_step g agg) g
              ~vertex ~regs)
          vertices)
      feeds;
    let snapshot () =
      Array.map
        (fun memo ->
          Option.map
            (fun p -> (Aggregate.finalize p, Aggregate.bytes p))
            (Memo.partial_opt memo ~qid:q.qid ~label:agg_step))
        memos
    in
    let before = snapshot () in
    sent := [];
    Progress_tier.launch tier q;
    ignore
      (Progress_tier.receive tier ~at:Sim_time.zero ~cz:(-1) ~w:q.coordinator q 0 Weight.root
        : Sim_time.t);
    Alcotest.(check int) "a flush to each responder" 2 (List.length !sent);
    sent := [];
    Array.iteri
      (fun w memo ->
        ignore
          (Progress_tier.respond tier ~at:Sim_time.zero ~w memo q ~agg_step ~cz:(-1) : Sim_time.t))
      memos;
    let results = List.filter_map (fun (_, p) -> Progress_tier.combine tier q p) (payloads sent) in
    Alcotest.(check bool) "partials unchanged by the combine" true (snapshot () = before);
    Array.iter (fun memo -> Memo.clear_query memo q.qid) memos;
    match results with
    | [ regs ] -> regs.(reg)
    | l -> Alcotest.failf "%d combines finished, expected 1" (List.length l)
  in
  let ids vs = Value.List (List.map (fun v -> Value.Vertex v) vs) in
  Alcotest.(check bool) "first query" true (query [| [ 1; 6; 3 ]; [ 7; 2 ] |] = ids [ 7; 6 ]);
  Alcotest.(check bool) "second query, recycled accumulator" true
    (query [| [ 4; 0 ]; [] |] = ids [ 4; 0 ])

(* --- Lifecycle --- *)

let test_terminal_once () =
  let life = lifecycle () in
  let fired = ref [] in
  let h =
    Lifecycle.handle life
      ~submit:(fun s -> (Lifecycle.submit life s ()).Lifecycle.qid)
      ~terminate:(fun q o -> Lifecycle.end_query life q o ignore)
      ~drive:(fun ~until:_ -> ())
      ~finish:(fun () ->
        Lifecycle.report life ~makespan:Sim_time.zero ~metrics:(Metrics.create ()) ~events:0
          ~worker_busy:[||])
  in
  h.Engine.sh_on_terminal (fun qid o -> fired := (qid, o) :: !fired);
  let program = program () in
  let a = h.Engine.sh_submit (Engine.submit program) in
  let b = h.Engine.sh_submit (Engine.submit program) in
  let releases = ref 0 in
  let q = Lifecycle.query life a in
  Lifecycle.end_query life q (Engine.Completed (Sim_time.us 3)) (fun () -> incr releases);
  Lifecycle.end_query life q Engine.Timed_out (fun () -> incr releases);
  h.Engine.sh_cancel ~qid:a ~at:Sim_time.zero;
  h.Engine.sh_cancel ~qid:b ~at:Sim_time.zero;
  h.Engine.sh_cancel ~qid:b ~at:Sim_time.zero;
  Lifecycle.sweep life;
  Alcotest.(check int) "release ran once" 1 !releases;
  Alcotest.(check int) "one callback per query" 2 (List.length !fired);
  let r = h.Engine.sh_finish () in
  Alcotest.(check string) "first transition wins" "completed"
    (Engine.outcome_name r.Engine.queries.(a).Engine.outcome);
  Alcotest.(check string) "cancelled once" "cancelled"
    (Engine.outcome_name r.Engine.queries.(b).Engine.outcome)

(* --- Message slab --- *)

module IM = Map.Make (Int)

type slab_op =
  | Trav of int * int * int * int * int (* qid, cz, vertex, step, weight seed *)
  | Msg of int * int * int (* qid, cz, cleanup / flush step *)
  | Release of int (* the nth live handle, modulo *)
  | Set_cz of int * int

let pp_slab_op ppf = function
  | Trav (q, c, v, st, w) -> Fmt.pf ppf "trav(%d,%d,%d,%d,%d)" q c v st w
  | Msg (q, c, k) -> Fmt.pf ppf "msg(%d,%d,%d)" q c k
  | Release n -> Fmt.pf ppf "release %d" n
  | Set_cz (n, c) -> Fmt.pf ppf "set_cz %d %d" n c

(* Qids and causal ids share one packed word per slot: draw mostly small
   values, but also each field's extremes — qid -1 (migration messages)
   and qids up to 2^30 - 1, cz -1 and causal ids from 2^24 up to
   2^32 - 2. *)
let slab_qid =
  QCheck.Gen.(
    frequency
      [
        (4, int_range (-1) 5);
        (1, int_range (1 lsl 24) ((1 lsl 30) - 1));
        (1, oneofl [ -1; (1 lsl 30) - 1 ]);
      ])

let slab_cz =
  QCheck.Gen.(
    frequency
      [
        (4, int_range (-1) 50);
        (1, int_range (1 lsl 24) ((1 lsl 32) - 2));
        (1, oneofl [ -1; (1 lsl 32) - 2 ]);
      ])

(* A traverser's vertex and step share one packed word too: vertices up
   to 2^38 - 1 and steps up to 2^24 - 1. *)
let slab_vertex =
  QCheck.Gen.(
    frequency
      [
        (4, int_range 0 50);
        (1, int_range (1 lsl 31) ((1 lsl 38) - 1));
        (1, oneofl [ 0; (1 lsl 38) - 1 ]);
      ])

let slab_step =
  QCheck.Gen.(
    frequency
      [
        (4, int_range 0 20);
        (1, int_range (1 lsl 16) ((1 lsl 24) - 1));
        (1, oneofl [ 0; (1 lsl 24) - 1 ]);
      ])

let slab_op =
  QCheck.Gen.(
    frequency
      [
        ( 4,
          map3
            (fun (q, c) (v, st) w -> Trav (q, c, v, st, w))
            (pair slab_qid slab_cz) (pair slab_vertex slab_step) small_nat );
        (2, map3 (fun q c k -> Msg (q, c, k)) slab_qid slab_cz (int_bound 3));
        (5, map (fun n -> Release n) small_nat);
        (2, map2 (fun n c -> Set_cz (n, c)) small_nat slab_cz);
      ])

(* What the model expects in a live slot: qid, cz, the payload and, for
   a one-traverser message, its lanes (a message's register lane reads
   empty). *)
type slot = {
  s_qid : int;
  s_cz : int;
  s_payload : Payload.t;
  s_vertex : int;
  s_step : int;
  s_weight : Weight.t;
  s_regs : Value.t array;
}

let payload_of k = if k = 0 then Payload.P_cleanup else Payload.P_agg_flush { agg_step = k }

(* The slab against a map from live handle to its lanes, after every op
   of a random sequence long enough to grow past one chunk: live handles
   are distinct, every lane reads back what was written (a qid and a
   [cz] packed into one word, [set_cz] leaving the qid alone; a vertex
   and a step packed into another), [in_use] is the map's size, and
   releasing a free slot is refused. *)
let slab_matches_model =
  QCheck.Test.make ~name:"slab matches a map model" ~count:100
    (QCheck.make
       ~print:(fun ops -> Fmt.str "%a" (Fmt.list ~sep:Fmt.sp pp_slab_op) ops)
       QCheck.Gen.(list_size (int_range 0 3000) slab_op))
    (fun ops ->
      let s = Payload.slab () in
      let model = ref IM.empty in
      let nth n = fst (List.nth (IM.bindings !model) (n mod IM.cardinal !model)) in
      let add h slot =
        if IM.mem h !model then QCheck.Test.fail_reportf "handle %d handed out twice" h;
        model := IM.add h slot !model
      in
      List.iter
        (fun op ->
          (match op with
          | Trav (qid, cz, vertex, step, w) ->
            let weight = Weight.random (Prng.create w) in
            let regs = Array.make (w mod 3) (Value.Int vertex) in
            add
              (Payload.trav s ~qid ~cz ~vertex ~step ~weight ~regs)
              { s_qid = qid; s_cz = cz; s_payload = Payload.P_trav; s_vertex = vertex;
                s_step = step; s_weight = weight; s_regs = regs }
          | Msg (qid, cz, k) ->
            add
              (Payload.msg s ~qid ~cz (payload_of k))
              { s_qid = qid; s_cz = cz; s_payload = payload_of k; s_vertex = 0; s_step = 0;
                s_weight = Weight.zero; s_regs = [||] }
          | Release n when not (IM.is_empty !model) ->
            let h = nth n in
            Payload.release s h;
            model := IM.remove h !model;
            (match Payload.release s h with
            | () -> QCheck.Test.fail_reportf "slot %d released twice" h
            | exception Invalid_argument _ -> ())
          | Set_cz (n, cz) when not (IM.is_empty !model) ->
            let h = nth n in
            Payload.set_cz s h cz;
            model := IM.add h { (IM.find h !model) with s_cz = cz } !model
          | Release _ | Set_cz _ -> ());
          if Payload.in_use s <> IM.cardinal !model then
            QCheck.Test.fail_reportf "after %a: %d in use, model %d" pp_slab_op op
              (Payload.in_use s) (IM.cardinal !model))
        ops;
      IM.iter
        (fun h slot ->
          let ok =
            Payload.qid s h = slot.s_qid
            && Payload.cz s h = slot.s_cz
            && Payload.payload s h = slot.s_payload
            && Payload.regs s h = slot.s_regs
            && (slot.s_payload <> Payload.P_trav
               || Payload.vertex s h = slot.s_vertex
                  && Payload.step s h = slot.s_step
                  && Weight.equal (Payload.weight s h) slot.s_weight)
          in
          if not ok then QCheck.Test.fail_reportf "slot %d disagrees with the model" h)
        !model;
      true)

(* --- Batch table --- *)

type batch_op =
  | Open
  | Push of int * int (* the nth live batch, modulo; element seed *)
  | Release_batch of int (* the nth live batch, modulo *)

let pp_batch_op ppf = function
  | Open -> Fmt.string ppf "open"
  | Push (n, e) -> Fmt.pf ppf "push %d %d" n e
  | Release_batch n -> Fmt.pf ppf "release %d" n

(* Pushes outnumber opens, so batches grow through several size classes
   and their arrays go back to the pool and out again. *)
let batch_op =
  QCheck.Gen.(
    frequency
      [
        (2, return Open);
        (8, map2 (fun n e -> Push (n, e)) small_nat small_nat);
        (2, map (fun n -> Release_batch n) small_nat);
      ])

(* One element's lanes, from its seed. *)
let element e = (e * 7, e mod 5, Weight.random (Prng.create e), Array.make (e mod 3) (Value.Int e))

(* The batch table against a map from live batch id to its elements (a
   list, newest first), after every op of a random sequence: live ids
   are distinct and no array is handed out to two live batches, every
   live batch reads back its elements in push order, [batches_in_use] is
   the map's size, a released batch reads as empty, and releasing a free
   batch is refused. Releasing every batch at the end empties the
   table. *)
let batches_match_model =
  QCheck.Test.make ~name:"batch table matches a map model" ~count:100
    (QCheck.make
       ~print:(fun ops -> Fmt.str "%a" (Fmt.list ~sep:Fmt.sp pp_batch_op) ops)
       QCheck.Gen.(list_size (int_range 0 2000) batch_op))
    (fun ops ->
      let s = Payload.slab () in
      let model = ref IM.empty in
      let nth n = fst (List.nth (IM.bindings !model) (n mod IM.cardinal !model)) in
      let release id =
        Payload.batch_release s id;
        model := IM.remove id !model;
        if Payload.batch_length s id <> 0 then
          QCheck.Test.fail_reportf "released batch %d is not empty" id;
        match Payload.batch_release s id with
        | () -> QCheck.Test.fail_reportf "batch %d released twice" id
        | exception Invalid_argument _ -> ()
      in
      let agrees id elements =
        let elements = Array.of_list (List.rev elements) in
        let vsteps = Payload.batch_vsteps s id and weights = Payload.batch_weights s id in
        let regs = Payload.batch_regs s id in
        Payload.batch_length s id = Array.length elements
        && Array.for_all Fun.id
             (Array.mapi
                (fun i (vertex, step, weight, r) ->
                  Payload.vstep_vertex vsteps.(i) = vertex
                  && Payload.vstep_step vsteps.(i) = step
                  && Weight.equal weights.(i) weight
                  && regs.(i) == r)
                elements)
      in
      let check op =
        if Payload.batches_in_use s <> IM.cardinal !model then
          QCheck.Test.fail_reportf "after %a: %d in use, model %d" pp_batch_op op
            (Payload.batches_in_use s) (IM.cardinal !model);
        let vsteps = ref [] and weights = ref [] and regs = ref [] in
        let fresh seen a =
          let ok = not (List.exists (fun b -> b == a) !seen) in
          seen := a :: !seen;
          ok
        in
        IM.iter
          (fun id elements ->
            if not (agrees id elements) then
              QCheck.Test.fail_reportf "after %a: batch %d disagrees with the model" pp_batch_op op
                id;
            let v = fresh vsteps (Payload.batch_vsteps s id) in
            let w = fresh weights (Payload.batch_weights s id) in
            if not (v && w && fresh regs (Payload.batch_regs s id)) then
              QCheck.Test.fail_reportf "after %a: batch %d shares an array" pp_batch_op op id)
          !model
      in
      List.iter
        (fun op ->
          (match op with
          | Open ->
            let id = Payload.batch_open s in
            if IM.mem id !model then QCheck.Test.fail_reportf "batch %d handed out twice" id;
            model := IM.add id [] !model
          | Push (n, e) when not (IM.is_empty !model) ->
            let id = nth n in
            let ((vertex, step, weight, regs) as el) = element e in
            Payload.batch_push s id ~vertex ~step ~weight ~regs;
            model := IM.add id (el :: IM.find id !model) !model
          | Release_batch n when not (IM.is_empty !model) -> release (nth n)
          | Push _ | Release_batch _ -> ());
          check op)
        ops;
      IM.iter (fun id _ -> release id) !model;
      Payload.batches_in_use s = 0)

(* --- Staging --- *)

(* Traversers of two queries over three steps, interleaved: each lands in
   its (qid, step) group, groups open in first-seen order, and arrival
   order and contexts hold within a group. *)
let test_staging_groups () =
  let st = Staging.create () in
  let stage () =
    List.iteri
      (fun i (qid, step) ->
        Staging.add st ~qid ~cz:(10 + i) ~vertex:i ~step ~weight:Weight.root ~regs:[||])
      [ (0, 1); (1, 1); (0, 2); (0, 1); (1, 1); (0, 3); (0, 2) ]
  in
  let groups () =
    List.init (Staging.length st) (fun i ->
        let g = Staging.get st i in
        ( (g.Staging.qid, g.Staging.step),
          List.init (Travs.length g.Staging.travs) (Travs.vertex g.Staging.travs),
          Vec.to_list g.Staging.czs ))
  in
  let want =
    [
      ((0, 1), [ 0; 3 ], [ 10; 13 ]);
      ((1, 1), [ 1; 4 ], [ 11; 14 ]);
      ((0, 2), [ 2; 6 ], [ 12; 16 ]);
      ((0, 3), [ 5 ], [ 15 ]);
    ]
  in
  let pp = Alcotest.(list (triple (pair int int) (list int) (list int))) in
  stage ();
  Alcotest.check pp "first quantum" want (groups ());
  Staging.clear st;
  Alcotest.(check int) "cleared" 0 (Staging.length st);
  stage ();
  Alcotest.check pp "reused groups" want (groups ())

(* Allocation guard: once a quantum has opened its groups, staging
   allocates nothing per traverser. 1 000 quanta of 64 traversers over 8
   (qid, step) groups: measured 0 words; a table keyed by (qid, step)
   tuples allocates a key and an option per traverser. *)
let test_staging_allocates_nothing () =
  let st = Staging.create () in
  let regs = [| Value.Int 1 |] in
  let quantum () =
    for i = 0 to 63 do
      Staging.add st ~qid:(i mod 2) ~cz:i ~vertex:i ~step:(i mod 4) ~weight:Weight.root ~regs
    done;
    Staging.clear st
  in
  quantum ();
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    quantum ()
  done;
  let words = int_of_float (Gc.minor_words () -. before) in
  if words > 8 then Alcotest.failf "64 000 staged traversers allocated %d words (bound 8)" words

let () =
  Alcotest.run "seams"
    [
      ( "migration",
        [
          Alcotest.test_case "gate runs, forwards or stashes" `Quick test_gate;
          Alcotest.test_case "a vertex migrates at most once" `Quick test_migrates_once;
          Alcotest.test_case "stash drains in arrival order" `Quick test_stash_drains_in_order;
          Alcotest.test_case "a warm gate allocates nothing" `Quick
            test_warm_gate_allocates_nothing;
        ] );
      ( "progress",
        [
          Alcotest.test_case "flush conserves coalesced weight" `Quick test_flush_conserves;
          Alcotest.test_case "cancelled weight is dropped" `Quick test_cancelled_weight_dropped;
          Alcotest.test_case "a combine leaves the responders' partials unchanged" `Quick
            test_combine_leaves_partials;
        ] );
      ( "lifecycle",
        [ Alcotest.test_case "terminal transition fires once" `Quick test_terminal_once ] );
      ("slab", [ qcheck slab_matches_model; qcheck batches_match_model ]);
      ( "staging",
        [
          Alcotest.test_case "groups in first-seen order" `Quick test_staging_groups;
          Alcotest.test_case "warm staging allocates nothing" `Quick
            test_staging_allocates_nothing;
        ] );
    ]
