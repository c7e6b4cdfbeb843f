(* Wall-clock microbenchmarks (Bechamel) of the hot primitives underneath
   the simulator's cost model: weight arithmetic, memo operations, the
   event queue, top-k accumulation, CSR adjacency scans and single-step
   execution. Each reports time and minor-heap words per operation; the
   message-slab flood, timed by its own loop, counts both heaps. *)

open Bechamel
open Toolkit

let weight_tests () =
  let prng = Pstm_util.Prng.create 1 in
  [
    Test.make ~name:"weight-split2"
      (Staged.stage (fun () -> ignore (Pstm_core.Weight.split2 prng Pstm_core.Weight.root)));
    Test.make ~name:"weight-add"
      (Staged.stage
         (let w = ref Pstm_core.Weight.zero in
          fun () -> w := Pstm_core.Weight.add !w Pstm_core.Weight.root));
    Test.make ~name:"prng-next"
      (Staged.stage (fun () -> ignore (Pstm_util.Prng.next_int64 prng)));
  ]

(* Memo probes on both key paths: vertex keys (the int-keyed table) and
   [Value.Int] keys (the generic table), at 2k, 20k and 200k distinct keys
   in one (query, label). Every key is inserted before timing, so each
   probe is a hit, as a Visit or Dedup step in steady state; keys are
   built outside the timed call and cycle through a random sequence. Then
   one query's whole memo lifecycle, at 8 and 128 keys per label. *)
let memo_tests () =
  let sweep ~key ~op n =
    let memo = Pstm_core.Memo.create () in
    for k = 0 to n - 1 do
      op memo (key k)
    done;
    let prng = Pstm_util.Prng.create n in
    let keys = Array.init 65_536 (fun _ -> key (Pstm_util.Prng.int prng n)) and i = ref 0 in
    Staged.stage (fun () ->
        i := (!i + 1) land 65_535;
        op memo keys.(!i))
  in
  let min_dist memo v =
    ignore (Pstm_core.Memo.min_int_update memo ~qid:0 ~label:2 v 3 : Pstm_core.Memo.visit_outcome)
  in
  let dedup memo key = ignore (Pstm_core.Memo.add_if_absent memo ~qid:0 ~label:1 key : bool) in
  let sizes = [ 2_000; 20_000; 200_000 ] in
  (* A whole query per op, as every partition a query touches sees it: a
     fresh qid writes [k] prebuilt vertex keys to a Dedup and a Visit
     label, then is cleared. *)
  let lifecycle k =
    let memo = Pstm_core.Memo.create () in
    let keys = Array.init k (fun v -> Value.Vertex v) and qid = ref 0 in
    Staged.stage (fun () ->
        incr qid;
        let qid = !qid in
        for v = 0 to k - 1 do
          ignore (Pstm_core.Memo.add_if_absent memo ~qid ~label:1 keys.(v) : bool);
          ignore (Pstm_core.Memo.min_int_update memo ~qid ~label:2 v 3 : Pstm_core.Memo.visit_outcome)
        done;
        Pstm_core.Memo.clear_query memo qid)
  in
  [
    Test.make_indexed ~name:"memo-min-dist" ~args:sizes (sweep ~key:Fun.id ~op:min_dist);
    Test.make_indexed ~name:"memo-dedup-vertex" ~args:sizes
      (sweep ~key:(fun k -> Value.Vertex k) ~op:dedup);
    Test.make_indexed ~name:"memo-dedup-int" ~args:sizes (sweep ~key:(fun k -> Value.Int k) ~op:dedup);
    Test.make_indexed ~name:"memo-query-lifecycle" ~args:[ 8; 128 ] lifecycle;
  ]

(* Event-queue push+pop at a steady depth of 100, 10k and 100k pending
   events: the queue is prefilled to the depth, then each op schedules
   one prebuilt thunk at a random offset past [now] and fires the
   earliest event, so the depth stays put. Offsets are drawn before
   timing and cycle through a fixed sequence. *)
let event_queue_tests () =
  let at_depth depth =
    let q = Event_queue.create () in
    let prng = Pstm_util.Prng.create depth in
    let offsets = Array.init 65_536 (fun _ -> Pstm_util.Prng.int prng 10_000) and i = ref 0 in
    let thunk () = () in
    for k = 0 to depth - 1 do
      Event_queue.schedule_at q ~time:offsets.(k land 65_535) ~tag:0 thunk
    done;
    Staged.stage (fun () ->
        i := (!i + 1) land 65_535;
        Event_queue.schedule_at q ~time:(Event_queue.now q + offsets.(!i)) ~tag:0 thunk;
        ignore (Event_queue.step q : bool))
  in
  [
    Test.make_indexed ~name:"event-queue-push-pop" ~args:[ 100; 10_000; 100_000 ] at_depth;
  ]

let structure_tests () =
  let prng = Pstm_util.Prng.create 3 in
  let topk =
    Pstm_util.Topk.create ~k:10
      ~cmp:(fun a _ b _ -> compare (a : int) b)
      ~dummy_score:0 ~dummy_output:0
  in
  let graph = Pstm_gen.Datasets.load Pstm_gen.Datasets.lj_like in
  let n = Graph.n_vertices graph in
  [
    Test.make ~name:"topk-add"
      (Staged.stage (fun () ->
           Pstm_util.Topk.add topk (Pstm_util.Prng.int prng 1_000_000) (Pstm_util.Prng.int prng n)));
    Test.make ~name:"csr-expand-scan"
      (Staged.stage (fun () ->
           let v = Pstm_util.Prng.int prng n in
           let acc = ref 0 in
           Graph.iter_adjacent graph ~dir:Graph.Out v (fun ~target ~edge_id:_ ~label:_ ->
               acc := !acc + target);
           ignore !acc));
    Test.make ~name:"value-compare"
      (Staged.stage (fun () ->
           ignore (Value.compare (Value.Int (Pstm_util.Prng.int prng 100)) (Value.Int 50))));
  ]

(* Fused frontier chain vs the scalar interpreter: the same
   Expand -> Filter chain over the same frontier, one [Batch_exec.run]
   vs one [Exec.run] dispatch per traverser per step. This is the
   amortization the async engine's batched mode buys per (partition,
   step) group; the acceptance bar for the PR is a >= 2x speedup. *)
let fused_vs_scalar () =
  let open Pstm_engine in
  let graph = Pstm_gen.Datasets.load Pstm_gen.Datasets.lj_like in
  let program =
    Pstm_query.Compile.compile ~name:"frontier" graph
      Pstm_query.Dsl.(
        v_lookup ~key:"id" (int 0) |> out_ "link" |> has "weight" (gte (int 50)) |> count |> build)
  in
  (* Root the chain at the program's first fusable step (the Expand). *)
  let start =
    let rec find i =
      if i >= Program.n_steps program then failwith "no fusable step"
      else if Batch_exec.fusable ~graph program i then i
      else find (i + 1)
    in
    find 0
  in
  let exit_step = Program.chain_exit program start in
  let n_registers = Program.n_registers program in
  let prng0 = Pstm_util.Prng.create 7 in
  (* A realistic frontier: the out-neighborhood of 256 seed vertices —
     what a (partition, step) group holds right after an expand. Hub
     vertices recur across seeds, which is the redundancy the batched
     filter memo amortizes and the scalar interpreter pays per
     traverser. *)
  let frontier =
    let csr = Graph.out_csr graph in
    let vertices = ref [] in
    let seeds = ref 0 in
    while !seeds < 256 do
      let v = Pstm_util.Prng.int prng0 (Graph.n_vertices graph) in
      if Graph.out_degree graph v > 0 then begin
        incr seeds;
        for pos = Csr.offset csr v to Csr.offset csr (v + 1) - 1 do
          vertices := Csr.target_at csr pos :: !vertices
        done
      end
    done;
    !vertices
    |> List.map (fun v -> Traverser.make ~vertex:v ~step:start ~weight:Weight.root ~n_registers)
    |> Array.of_list
  in
  let iters = 20 in
  (* CPU seconds and words allocated (minor + major - promoted) over
     [iters] runs of [f], after one untimed run that grows every buffer
     [f] reuses, so neither side is charged its warm-up. *)
  let time f =
    let heap_words () =
      let minor, promoted, major = Gc.counters () in
      minor +. major -. promoted
    in
    f ();
    Gc.minor ();
    let w0 = heap_words () and t0 = Sys.time () in
    for _ = 1 to iters do
      f ()
    done;
    (Sys.time () -. t0, heap_words () -. w0)
  in
  let scalar_s =
    let memo = Pstm_core.Memo.create () in
    let prng = Pstm_util.Prng.create 11 in
    let scan _ = [||] in
    let sink = Exec.sink () in
    time (fun () ->
        let queue = Queue.create () in
        Array.iter (fun t -> Queue.add t queue) frontier;
        while not (Queue.is_empty queue) do
          let (t : Traverser.t) = Queue.pop queue in
          Exec.clear sink;
          Exec.run sink ~graph ~memo ~prng ~qid:0 ~program ~scan ~vertex:t.vertex ~step:t.step
            ~weight:t.weight ~regs:t.regs;
          let spawns = sink.Exec.spawns in
          for i = 0 to Travs.length spawns - 1 do
            if Travs.step spawns i <> exit_step then Queue.add (Travs.get spawns i) queue
          done
        done)
  in
  let batched_s =
    let scratch = Batch_exec.scratch ~graph in
    let prng = Pstm_util.Prng.create 11 in
    let group = Travs.create () in
    Array.iter
      (fun (t : Traverser.t) ->
        Travs.push group ~vertex:t.vertex ~step:t.step ~weight:t.weight ~regs:t.regs)
      frontier;
    (* Consume the spawns like the engine does, so the comparison covers
       reading the surviving traversers' lanes, not just the sweep. *)
    let sink = Exec.sink () in
    let total = ref 0 in
    time (fun () ->
        Exec.clear sink;
        Batch_exec.run ~graph ~scratch ~prng ~program ~step:start group sink;
        for i = 0 to Travs.length sink.Exec.spawns - 1 do
          total := !total + Travs.vertex sink.Exec.spawns i
        done)
  in
  let per x = x /. float_of_int iters /. float_of_int (Array.length frontier) in
  let row name (seconds, words) =
    Printf.printf "  %-20s %10.1f ns/traverser %10.2f words/traverser\n" name
      (per seconds *. 1e9) (per words)
  in
  row "chain-scalar" scalar_s;
  row "chain-batched" batched_s;
  Printf.printf "  %-20s %10.2fx\n" "fused-speedup" (fst scalar_s /. fst batched_s)

(* One partition's share of an aggregating query, end to end, as the
   async engine runs it: a fresh qid's top-10 partial is fetched from
   the partition memo (built, or recycled from a cleared query),
   accumulates [n] traversers, merges into the coordinator's accumulator
   (a memo entry of its own, as {!Pstm_engine.Progress_tier} keeps it),
   and both memos clear the query. One op is that lifecycle; words count
   both heaps (minor + major - promoted) over [reps] ops, after one
   untimed op. [agg-partial-lifecycle] reads score and output from
   registers; [agg-partial-lifecycle-prop] is the shape the compiler
   gives [top_k]: a [Prop] score over an Ints column with holes and a
   [Vertex_id] output, read at 64 vertices in turn. *)
let agg_partial_lifecycle () =
  let prng = Pstm_util.Prng.create 5 in
  let regs =
    Array.init 64 (fun v -> [| Value.Int (Pstm_util.Prng.int prng 1000); Value.Vertex v |])
  in
  let b = Builder.create () in
  for v = 0 to 63 do
    let w = Pstm_util.Prng.int prng 1000 in
    let props = if v mod 7 = 3 then [] else [ ("w", Value.Int w) ] in
    ignore (Builder.add_vertex b ~label:"v" ~props ())
  done;
  let graph = Builder.build b in
  let key = Schema.property_key (Graph.schema graph) "w" in
  let heap_words () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let case name agg n =
    let memo = Memo.create () and coordinator = Memo.create () and qid = ref 0 in
    let op () =
      incr qid;
      let qid = !qid in
      let partial = Memo.partial memo ~qid ~label:3 graph agg in
      for i = 0 to n - 1 do
        Aggregate.accumulate agg partial graph ~vertex:i ~regs:regs.(i)
      done;
      Aggregate.merge ~into:(Memo.partial coordinator ~qid ~label:3 graph agg) partial;
      Memo.clear_query coordinator qid;
      Memo.clear_query memo qid
    in
    let reps = 200_000 in
    op ();
    Gc.minor ();
    let w0 = heap_words () and t0 = Sys.time () in
    for _ = 1 to reps do
      op ()
    done;
    Printf.printf "  %-30s %10.1f ns/op %10.2f words/op\n"
      (Printf.sprintf "%s:%d" name n)
      ((Sys.time () -. t0) *. 1e9 /. float_of_int reps)
      ((heap_words () -. w0) /. float_of_int reps)
  in
  let by_regs = Step.Topk { k = 10; score = Step.Reg 0; output = Step.Reg 1 } in
  let by_prop = Step.Topk { k = 10; score = Step.Prop key; output = Step.Vertex_id } in
  List.iter (case "agg-partial-lifecycle" by_regs) [ 1; 16; 64 ];
  List.iter (case "agg-partial-lifecycle-prop" by_prop) [ 1; 16; 64 ]

(* The message slab under a flood, as a flooding 4-hop fills it before
   its first message is consumed: acquire N one-traverser handles on a
   fresh slab, then release them all. One op is one acquire and its
   release. Words count both heaps (minor + major - promoted): a slab's
   chunks are too large for the minor heap. *)
let slab_flood () =
  let open Pstm_engine in
  let heap_words () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  List.iter
    (fun n ->
      let reps = 2_000_000 / n in
      let handles = Array.make n 0 in
      Gc.minor ();
      let w0 = heap_words () and t0 = Sys.time () in
      for _ = 1 to reps do
        let slab = Payload.slab () in
        for i = 0 to n - 1 do
          handles.(i) <-
            Payload.trav slab ~qid:0 ~cz:(-1) ~vertex:i ~step:1 ~weight:Weight.root ~regs:[||]
        done;
        Array.iter (Payload.release slab) handles
      done;
      let ops = float_of_int (reps * n) in
      Printf.printf "  %-26s %10.1f ns/op %10.2f words/op\n"
        (Printf.sprintf "message-slab-flood:%d" n)
        ((Sys.time () -. t0) *. 1e9 /. ops)
        ((heap_words () -. w0) /. ops))
    [ 100_000; 1_000_000 ]

let run () =
  (* The fused-vs-scalar comparison runs first: Bechamel's allocation
     churn leaves the heap in a state that distorts Sys.time measurements
     taken after it in the same process. *)
  Printf.printf "\n== Frontier batching: fused chain vs scalar interpreter ==\n";
  fused_vs_scalar ();
  Printf.printf "\n== Message slab flood (fresh slab: acquire N, then release N) ==\n";
  slab_flood ();
  Printf.printf "\n== Aggregate partial lifecycle (fetch, accumulate N, merge, clear) ==\n";
  agg_partial_lifecycle ();
  Printf.printf "\n== Microbenchmarks (wall clock, Bechamel OLS per op) ==\n";
  let tests = weight_tests () @ memo_tests () @ event_queue_tests () @ structure_tests () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock; minor_allocated ] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~stabilize:false () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let per_op instance =
        let stats = Analyze.all ols instance results in
        fun name ->
          match Analyze.OLS.estimates (Hashtbl.find stats name) with
          | Some [ x ] -> Printf.sprintf "%10.1f" x
          | _ -> Printf.sprintf "%10s" "-"
      in
      let ns = per_op Instance.monotonic_clock and words = per_op Instance.minor_allocated in
      List.iter
        (fun name -> Printf.printf "  %-26s %s ns/op %s words/op\n" name (ns name) (words name))
        (Test.names test))
    tests
