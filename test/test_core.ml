(* Unit and property tests for pstm_core: weights, memoranda, traversers,
   aggregates, program validation and progress tracking. *)

let qcheck = QCheck_alcotest.to_alcotest

(* --- Weight --- *)

let weight_split_conserves =
  QCheck.Test.make ~name:"split shares sum to the parent" ~count:300
    QCheck.(pair small_int (int_range 1 20))
    (fun (seed, n) ->
      let prng = Prng.create seed in
      let w = Weight.random prng in
      let shares = Weight.split prng w ~n in
      Array.length shares = n
      && Weight.equal w (Array.fold_left Weight.add Weight.zero shares))

let weight_split2_conserves =
  QCheck.Test.make ~name:"split2 conserves" ~count:300 QCheck.small_int (fun seed ->
      let prng = Prng.create seed in
      let w = Weight.random prng in
      let a, b = Weight.split2 prng w in
      Weight.equal w (Weight.add a b))

(* Simulate a random spawn tree and check the §III-B invariant: active
   weights plus finished weights always sum to the root. *)
let weight_tree_invariant =
  QCheck.Test.make ~name:"spawn-tree invariant (Theorem 1 setting)" ~count:100 QCheck.small_int
    (fun seed ->
      let prng = Prng.create seed in
      let active = Queue.create () in
      Queue.add Weight.root active;
      let finished = ref Weight.zero in
      let steps = ref 0 in
      let ok = ref true in
      while (not (Queue.is_empty active)) && !steps < 500 do
        incr steps;
        let w = Queue.pop active in
        let n_children = Prng.int prng 4 in
        if n_children = 0 || !steps > 400 then finished := Weight.add !finished w
        else Array.iter (fun share -> Queue.add share active) (Weight.split prng w ~n:n_children);
        (* Invariant check at every step. *)
        let total = Queue.fold Weight.add !finished active in
        if not (Weight.equal total Weight.root) then ok := false
      done;
      (* Drain any remainder and verify exact completion. *)
      Queue.iter (fun w -> finished := Weight.add !finished w) active;
      !ok && Weight.equal !finished Weight.root)

let test_weight_basics () =
  Alcotest.(check bool) "zero is zero" true (Weight.is_zero Weight.zero);
  Alcotest.(check bool) "root nonzero" false (Weight.is_zero Weight.root);
  Alcotest.(check bool) "sub inverts add" true
    (let prng = Prng.create 5 in
     let a = Weight.random prng and b = Weight.random prng in
     Weight.equal a (Weight.sub (Weight.add a b) b))

(* --- Progress --- *)

let test_tracker_completes_exactly_once () =
  let prng = Prng.create 8 in
  let shares = Weight.split prng Weight.root ~n:5 in
  let t = Progress.tracker ~target:Weight.root in
  let completions = ref 0 in
  Array.iteri
    (fun i w ->
      match Progress.receive t w with
      | Progress.Complete ->
        incr completions;
        Alcotest.(check int) "only on last receipt" 4 i
      | Progress.Pending -> ())
    shares;
  Alcotest.(check int) "exactly one completion" 1 !completions;
  Alcotest.(check bool) "is_complete" true (Progress.is_complete t);
  Alcotest.(check int) "receipts counted" 5 (Progress.receipts t)

let drained c =
  let n = Progress.drain_begin c in
  let out =
    List.init n (fun i -> (Progress.qid_at c i, Progress.phase_at c i, Progress.weight_at c i))
  in
  Progress.drain_end c;
  out

let test_coalescer_merges () =
  let c = Progress.coalescer () in
  let prng = Prng.create 9 in
  let w1 = Weight.random prng and w2 = Weight.random prng and w3 = Weight.random prng in
  Progress.coalesce c ~qid:1 ~phase:0 ~tag:0 w1;
  Progress.coalesce c ~qid:1 ~phase:0 ~tag:0 w2;
  Progress.coalesce c ~qid:2 ~phase:1 ~tag:0 w3;
  Alcotest.(check int) "pending additions" 3 (Progress.pending_additions c);
  (match drained c with
  | [ (1, 0, merged); (2, 1, w3') ] ->
    Alcotest.(check bool) "merged weight" true (Weight.equal merged (Weight.add w1 w2));
    Alcotest.(check bool) "other query kept apart" true (Weight.equal w3 w3')
  | other -> Alcotest.fail (Fmt.str "unexpected drain of %d entries" (List.length other)));
  Alcotest.(check bool) "empty after drain" true (Progress.is_empty c);
  Alcotest.(check int) "pending reset" 0 (Progress.pending_additions c)

(* Keys arrive interleaved and out of order; the drain ships them in
   ascending (qid, phase) order with each key's sum, zero sums included. *)
let test_coalescer_drain_order () =
  let c = Progress.coalescer () in
  let prng = Prng.create 10 in
  let keys = [ (7, 1); (2, 0); (7, 0); (3, 2); (2, 3); (3, 0); (11, 0); (2, 1); (5, 0) ] in
  let sums = Hashtbl.create 16 in
  for round = 1 to 3 do
    List.iter
      (fun (qid, phase) ->
        let w = Weight.random prng in
        Progress.coalesce c ~qid ~phase ~tag:0 w;
        let acc = Option.value ~default:Weight.zero (Hashtbl.find_opt sums (qid, phase)) in
        Hashtbl.replace sums (qid, phase) (Weight.add acc w))
      (if round = 2 then List.rev keys else keys)
  done;
  (* A key whose weights cancel out. *)
  let w = Weight.random prng in
  Progress.coalesce c ~qid:4 ~phase:1 ~tag:0 w;
  Progress.coalesce c ~qid:4 ~phase:1 ~tag:0 (Weight.sub Weight.zero w);
  Hashtbl.replace sums (4, 1) Weight.zero;
  let got = drained c in
  let expected = List.sort compare (List.of_seq (Hashtbl.to_seq_keys sums)) in
  Alcotest.(check (list (pair int int)))
    "ascending (qid, phase)" expected
    (List.map (fun (q, p, _) -> (q, p)) got);
  List.iter
    (fun (q, p, w) ->
      Alcotest.(check bool)
        (Fmt.str "sum of (%d, %d)" q p)
        true
        (Weight.equal w (Hashtbl.find sums (q, p))))
    got;
  Alcotest.(check bool) "zero-sum entry drains" true
    (List.exists (fun (q, p, w) -> q = 4 && p = 1 && Weight.is_zero w) got);
  Alcotest.(check int) "additions" (3 * List.length keys + 2) (Progress.additions c);
  Alcotest.(check bool) "empty after drain" true (Progress.is_empty c)

let test_coalescer_discard_query () =
  let c = Progress.coalescer () in
  let one = Weight.random (Prng.create 12) in
  List.iter
    (fun (qid, phase) -> Progress.coalesce c ~qid ~phase ~tag:0 one)
    [ (3, 0); (1, 0); (3, 2); (2, 1); (3, 1); (4, 0) ];
  Progress.discard_query c ~qid:3;
  Alcotest.(check int) "pending additions untouched" 6 (Progress.pending_additions c);
  Alcotest.(check (list (pair int int)))
    "only qid 3 removed" [ (1, 0); (2, 1); (4, 0) ]
    (List.map (fun (q, p, _) -> (q, p)) (drained c));
  Progress.discard_query c ~qid:9;
  Alcotest.(check bool) "discarding on empty" true (Progress.is_empty c)

(* Each entry keeps its last contributor's tag. Tags move with their
   entries when an insertion shifts them, leave with them on
   [discard_query], and reach the drain in (qid, phase) order. *)
let test_coalescer_tags () =
  let c = Progress.coalescer () in
  let one = Weight.random (Prng.create 13) in
  let merge qid phase tag = Progress.coalesce c ~qid ~phase ~tag one in
  merge 5 0 50;
  merge 5 0 51;
  merge 3 1 31;
  merge 5 1 52;
  merge 1 0 10;
  merge 3 1 32;
  merge 3 0 30;
  merge 2 0 20;
  Progress.discard_query c ~qid:2;
  let n = Progress.drain_begin c in
  let tags =
    List.init n (fun i -> ((Progress.qid_at c i, Progress.phase_at c i), Progress.tag_at c i))
  in
  Progress.drain_end c;
  Alcotest.(check (list (pair (pair int int) int)))
    "last tag per entry, in (qid, phase) order"
    [ ((1, 0), 10); ((3, 0), 30); ((3, 1), 32); ((5, 0), 51); ((5, 1), 52) ]
    tags

let test_coalescer_no_reentry () =
  let c = Progress.coalescer () in
  Progress.coalesce c ~qid:0 ~phase:0 ~tag:0 Weight.root;
  ignore (Progress.drain_begin c : int);
  Alcotest.check_raises "coalesce during a drain"
    (Invalid_argument "Progress.coalesce: coalescer re-entered during a drain")
    (fun () -> Progress.coalesce c ~qid:0 ~phase:0 ~tag:0 Weight.root)

(* --- Traverser --- *)

let test_traverser_copy_on_write () =
  let t = Traverser.make ~vertex:3 ~step:0 ~weight:Weight.root ~n_registers:2 in
  let t' = Traverser.set_reg t 0 (Value.Int 42) in
  Alcotest.(check bool) "parent unchanged" true (Value.is_null t.Traverser.regs.(0));
  Alcotest.(check bool) "child updated" true
    (Value.equal (Value.Int 42) t'.Traverser.regs.(0));
  let t'' = Traverser.set_reg t' 1 (Value.Int 2) in
  Alcotest.(check bool) "second write" true (Value.equal (Value.Int 2) t''.Traverser.regs.(1));
  Alcotest.(check bool) "first child unchanged" true (Value.is_null t'.Traverser.regs.(1));
  Alcotest.(check bool) "bytes grow with payload" true (Traverser.bytes t'' >= Traverser.bytes t)

(* --- Traverser lanes --- *)

type travs_op =
  | T_push of int * int * int (* vertex, step, weight seed; regs size = seed mod 3 *)
  | T_clear
  | T_truncate of int (* to the nth length, modulo *)
  | T_move of int * int (* src, dst, modulo the length *)

let pp_travs_op ppf = function
  | T_push (v, s, w) -> Fmt.pf ppf "push(%d,%d,%d)" v s w
  | T_clear -> Fmt.pf ppf "clear"
  | T_truncate n -> Fmt.pf ppf "truncate %d" n
  | T_move (a, b) -> Fmt.pf ppf "move %d->%d" a b

(* Lanes against a list of records, after every op of a random sequence
   long enough to double the lanes several times (pushes dominate; a
   clear or truncate now and then, so later pushes land in lanes that
   already grew): the length, every element's four lanes and its record,
   and the total weight agree with the model. *)
let travs_matches_list_model =
  let op =
    QCheck.Gen.(
      frequency
        [
          (40, map3 (fun v s w -> T_push (v, s, w)) small_nat small_nat small_nat);
          (1, return T_clear);
          (1, map (fun n -> T_truncate n) small_nat);
          (3, map2 (fun a b -> T_move (a, b)) small_nat small_nat);
        ])
  in
  QCheck.Test.make ~name:"travs match a list model" ~count:200
    (QCheck.make
       ~print:(fun ops -> Fmt.str "%a" (Fmt.list ~sep:Fmt.sp pp_travs_op) ops)
       QCheck.Gen.(list_size (int_range 0 2000) op))
    (fun ops ->
      let t = Travs.create () in
      let model = ref [||] in
      List.iter
        (fun op ->
          let n = Array.length !model in
          (match op with
          | T_push (vertex, step, w) ->
            let weight = Weight.random (Prng.create w) in
            let regs = Array.make (w mod 3) (Value.Int vertex) in
            Travs.push t ~vertex ~step ~weight ~regs;
            model := Array.append !model [| { Traverser.vertex; step; weight; regs } |]
          | T_clear ->
            Travs.clear t;
            model := [||]
          | T_truncate k ->
            let k = k mod (n + 1) in
            Travs.truncate t k;
            model := Array.sub !model 0 k
          | T_move (a, b) when n > 0 ->
            Travs.move t ~src:(a mod n) ~dst:(b mod n);
            !model.(b mod n) <- !model.(a mod n)
          | T_move _ -> ());
          let m = !model in
          if Travs.length t <> Array.length m then
            QCheck.Test.fail_reportf "after %a: length %d, model %d" pp_travs_op op
              (Travs.length t) (Array.length m);
          Array.iteri
            (fun i (r : Traverser.t) ->
              let g = Travs.get t i in
              if
                not
                  (Travs.vertex t i = r.vertex
                  && Travs.step t i = r.step
                  && Weight.equal (Travs.weight t i) r.weight
                  && Travs.regs t i == r.regs
                  && g.vertex = r.vertex && g.step = r.step
                  && Weight.equal g.weight r.weight && g.regs == r.regs)
              then QCheck.Test.fail_reportf "after %a: element %d disagrees" pp_travs_op op i)
            m;
          let total =
            Array.fold_left (fun acc (r : Traverser.t) -> Weight.add acc r.weight) Weight.zero m
          in
          if not (Weight.equal (Travs.total_weight t) total) then
            QCheck.Test.fail_reportf "after %a: total weight disagrees" pp_travs_op op;
          match Travs.vertex t (Array.length m) with
          | _ -> QCheck.Test.fail_reportf "after %a: read past the end" pp_travs_op op
          | exception Invalid_argument _ -> ())
        ops;
      true)

(* --- Memo --- *)

let dummy_graph =
  lazy (Builder.build (Builder.of_edges ~n_vertices:1 [||]))

let test_memo_dedup () =
  let m = Memo.create () in
  Alcotest.(check bool) "first" true (Memo.add_if_absent m ~qid:1 ~label:0 (Value.Int 5));
  Alcotest.(check bool) "duplicate" false (Memo.add_if_absent m ~qid:1 ~label:0 (Value.Int 5));
  Alcotest.(check bool) "other label" true (Memo.add_if_absent m ~qid:1 ~label:1 (Value.Int 5));
  Alcotest.(check bool) "other query" true (Memo.add_if_absent m ~qid:2 ~label:0 (Value.Int 5));
  Memo.clear_query m 1;
  Alcotest.(check bool) "cleared" true (Memo.add_if_absent m ~qid:1 ~label:0 (Value.Int 5));
  Alcotest.(check bool) "query 2 survives" false (Memo.add_if_absent m ~qid:2 ~label:0 (Value.Int 5))

let test_memo_min_dist () =
  let m = Memo.create () in
  let v = 7 in
  Alcotest.(check bool) "first visit" true (Memo.min_int_update m ~qid:0 ~label:2 v 5 = Memo.First_visit);
  Alcotest.(check bool) "improvement" true (Memo.min_int_update m ~qid:0 ~label:2 v 3 = Memo.Improved);
  Alcotest.(check bool) "equal not improved" true
    (Memo.min_int_update m ~qid:0 ~label:2 v 3 = Memo.Not_improved);
  Alcotest.(check bool) "worse not improved" true
    (Memo.min_int_update m ~qid:0 ~label:2 v 9 = Memo.Not_improved)

let test_memo_rows () =
  let m = Memo.create () in
  Memo.rows_add m ~qid:0 ~label:3 (Value.Int 1) [| Value.Str "a" |];
  Memo.rows_add m ~qid:0 ~label:3 (Value.Int 1) [| Value.Str "b" |];
  Alcotest.(check int) "two rows" 2 (List.length (Memo.rows_get m ~qid:0 ~label:3 (Value.Int 1)));
  Alcotest.(check int) "other key empty" 0
    (List.length (Memo.rows_get m ~qid:0 ~label:3 (Value.Int 2)))

let test_memo_accounting () =
  let m = Memo.create () in
  ignore (Memo.add_if_absent m ~qid:0 ~label:0 (Value.Int 1));
  ignore (Memo.add_if_absent m ~qid:0 ~label:0 (Value.Int 2));
  ignore (Memo.add_if_absent m ~qid:0 ~label:0 (Value.Int 2));
  Alcotest.(check int) "live entries" 2 (Memo.live_entries m);
  Memo.clear_query m 0;
  Alcotest.(check int) "live after clear" 0 (Memo.live_entries m)

(* Model-based test: random op sequences against a reference [Map] keyed by
   (qid, label, key). Keys mix vertices, ints, strings and Null; vertex ids
   come from a small dense pool and from multiples of 16 (ids that all share
   a home slot under an unmixed modulo hash), so the per-label tables fill
   to their load limit, probe runs wrap past the end of the slot array, and
   extraction must close the gaps it leaves.

   Queries are cleared and their qids reused while other queries live, so
   later queries run on recycled records and stores; labels are first
   touched in random order; [Fill] grows one table past the 32 slots a
   recycled table may keep (the other ops stay below); and reads hit absent queries and labels
   between the writes. A recycled store that still showed a record of an
   earlier query would disagree with the model. *)
module Memo_model = struct
  module Key = struct
    type t = int * int * Value.t

    let compare (q1, l1, k1) (q2, l2, k2) =
      match Int.compare q1 q2 with
      | 0 -> ( match Int.compare l1 l2 with 0 -> Value.compare k1 k2 | c -> c)
      | c -> c
  end

  module M = Map.Make (Key)

  type op =
    | Add of int * int * Value.t
    | Add_vertex of int * int * int
    | Min of int * int * int * int
    | Rows_add of int * int * Value.t * int
    | Rows_get of int * int * Value.t
    | Partial of int * int
    | Partial_opt of int * int
    | Set of int * int * Value.t * int
    | Fill of int * int * int
    | Extract of Value.t
    | Clear of int

  let pp_op ppf = function
    | Add (q, l, k) -> Fmt.pf ppf "add_if_absent q%d l%d %a" q l Value.pp k
    | Add_vertex (q, l, v) -> Fmt.pf ppf "add_vertex_if_absent q%d l%d v%d" q l v
    | Min (q, l, v, d) -> Fmt.pf ppf "min_int_update q%d l%d v%d %d" q l v d
    | Rows_add (q, l, k, r) -> Fmt.pf ppf "rows_add q%d l%d %a %d" q l Value.pp k r
    | Rows_get (q, l, k) -> Fmt.pf ppf "rows_get q%d l%d %a" q l Value.pp k
    | Partial (q, l) -> Fmt.pf ppf "partial q%d l%d" q l
    | Partial_opt (q, l) -> Fmt.pf ppf "partial_opt q%d l%d" q l
    | Set (q, l, k, e) -> Fmt.pf ppf "set q%d l%d %a %d" q l Value.pp k e
    | Fill (q, l, n) -> Fmt.pf ppf "add_if_absent q%d l%d v0..v%d" q l (n - 1)
    | Extract k -> Fmt.pf ppf "extract_for_key %a" Value.pp k
    | Clear q -> Fmt.pf ppf "clear_query q%d" q

  let gen =
    let open QCheck.Gen in
    let vertex = oneof [ int_range 0 11; map (fun k -> 16 * k) (int_range 0 11) ] in
    let key =
      frequency
        [
          (5, map (fun v -> Value.Vertex v) vertex);
          (2, map (fun i -> Value.Int i) (int_range 0 4));
          (1, map (fun s -> Value.Str s) (oneofl [ "a"; "b" ]));
          (1, return Value.Null);
        ]
    in
    let qid = frequency [ (3, int_range 0 2); (1, int_range 3 9) ]
    and label = frequency [ (3, int_range 0 3); (1, int_range 4 9) ] in
    let op =
      frequency
        [
          (1, map3 (fun q l n -> Fill (q, l, n)) qid label (int_range 30 200));
          (6, map3 (fun q l k -> Add (q, l, k)) qid label key);
          (3, map3 (fun q l v -> Add_vertex (q, l, v)) qid label vertex);
          (6, map3 (fun (q, l) v d -> Min (q, l, v, d)) (pair qid label) vertex (int_range 0 5));
          (3, map3 (fun (q, l) k r -> Rows_add (q, l, k, r)) (pair qid label) key small_nat);
          (2, map3 (fun q l k -> Rows_get (q, l, k)) qid label key);
          (1, map2 (fun q l -> Partial (q, l)) qid label);
          (1, map2 (fun q l -> Partial_opt (q, l)) qid label);
          (2, map3 (fun (q, l) k e -> Set (q, l, k, e)) (pair qid label) key (int_range 0 5));
          (2, map (fun k -> Extract k) key);
          (3, map (fun q -> Clear q) qid);
        ]
    in
    list_size (int_range 1 300) op

  let arbitrary = QCheck.make ~print:(Fmt.str "%a" (Fmt.Dump.list pp_op)) gen

  let entry_equal a b =
    match (a, b) with
    | Memo.Scalar x, Memo.Scalar y -> Value.equal x y
    | Memo.Partial x, Memo.Partial y -> x == y
    | Memo.Rows x, Memo.Rows y -> List.equal (Array.for_all2 Value.equal) x y
    | _ -> false

  let outcome f = match f () with x -> Ok x | exception Invalid_argument _ -> Error ()

  (* Runs one op on both sides; false iff the memo disagrees with the model. *)
  let step memo model op =
    let find q l k = M.find_opt (q, l, k) !model in
    let put q l k e = model := M.add (q, l, k) e !model in
    let agrees eq expected actual =
      match (expected, outcome actual) with
      | Ok x, Ok y -> eq x y
      | Error (), Error () -> true
      | _ -> false
    in
    match op with
    | Add (q, l, k) ->
      let expected =
        match find q l k with
        | Some _ -> Ok false
        | None ->
          put q l k (Memo.Scalar Value.Null);
          Ok true
      in
      agrees Bool.equal expected (fun () -> Memo.add_if_absent memo ~qid:q ~label:l k)
    | Add_vertex (q, l, v) ->
      let k = Value.Vertex v in
      let expected = find q l k = None in
      if expected then put q l k (Memo.Scalar Value.Null);
      Memo.add_vertex_if_absent memo ~qid:q ~label:l v = expected
    | Min (q, l, v, d) ->
      let k = Value.Vertex v in
      let expected =
        match find q l k with
        | None ->
          put q l k (Memo.Scalar (Value.Int d));
          Ok Memo.First_visit
        | Some (Memo.Scalar (Value.Int best)) when d < best ->
          put q l k (Memo.Scalar (Value.Int d));
          Ok Memo.Improved
        | Some _ -> Ok Memo.Not_improved
      in
      agrees ( = ) expected (fun () -> Memo.min_int_update memo ~qid:q ~label:l v d)
    | Rows_add (q, l, k, r) ->
      let row = [| Value.Int r |] in
      let expected =
        match find q l k with
        | Some (Memo.Rows rows) ->
          put q l k (Memo.Rows (row :: rows));
          Ok ()
        | Some _ -> Error ()
        | None ->
          put q l k (Memo.Rows [ row ]);
          Ok ()
      in
      agrees ( = ) expected (fun () -> Memo.rows_add memo ~qid:q ~label:l k row)
    | Rows_get (q, l, k) ->
      let expected =
        match find q l k with
        | Some (Memo.Rows rows) -> Ok rows
        | Some _ -> Error ()
        | None -> Ok []
      in
      agrees
        (List.equal (Array.for_all2 Value.equal))
        expected
        (fun () -> Memo.rows_get memo ~qid:q ~label:l k)
    | Partial (q, l) -> (
      let g = Lazy.force dummy_graph in
      let fetch () = Memo.partial memo ~qid:q ~label:l g Step.Count in
      match (find q l Value.Null, outcome fetch) with
      | Some (Memo.Partial p), Ok p' -> p == p'
      | Some _, Error () -> true
      | None, Ok p' ->
        put q l Value.Null (Memo.Partial p');
        true
      | _ -> false)
    | Partial_opt (q, l) ->
      let expected =
        match find q l Value.Null with
        | Some (Memo.Partial p) -> Ok (Some p)
        | Some _ -> Error ()
        | None -> Ok None
      in
      agrees (Option.equal ( == )) expected (fun () -> Memo.partial_opt memo ~qid:q ~label:l)
    | Set (q, l, k, e) ->
      let entry =
        match e mod 3 with
        | 0 -> Memo.Scalar (Value.Int e)
        | 1 -> Memo.Rows [ [| Value.Int e |] ]
        | _ -> Memo.Partial (Aggregate.create (Lazy.force dummy_graph) Step.Count)
      in
      put q l k entry;
      agrees ( = ) (Ok ()) (fun () -> Memo.set memo ~qid:q ~label:l k entry)
    | Fill (q, l, n) ->
      List.for_all
        (fun v ->
          let k = Value.Vertex v in
          let expected = find q l k = None in
          if expected then put q l k (Memo.Scalar Value.Null);
          Memo.add_if_absent memo ~qid:q ~label:l k = expected)
        (List.init n Fun.id)
    | Extract k ->
      (* M.bindings is ordered by (qid, label, key): the order the memo
         must produce. *)
      let expected =
        M.bindings !model
        |> List.filter_map (fun ((q, l, k'), e) ->
               if Value.equal k k' then Some (q, l, e) else None)
      in
      List.iter (fun (q, l, _) -> model := M.remove (q, l, k) !model) expected;
      let actual = Memo.extract_for_key memo k in
      List.equal (fun (q, l, e) (q', l', e') -> q = q' && l = l' && entry_equal e e') expected actual
      && Memo.extract_for_key memo k = []
    | Clear q ->
      model := M.filter (fun (q', _, _) _ -> q' <> q) !model;
      Memo.clear_query memo q;
      true

  let test =
    QCheck.Test.make ~name:"memo matches a map model" ~count:300 arbitrary (fun ops ->
        let memo = Memo.create () and model = ref M.empty in
        List.for_all
          (fun op ->
            let ok = step memo model op in
            if not ok then QCheck.Test.fail_reportf "%a disagrees with the model" pp_op op;
            if Memo.live_entries memo <> M.cardinal !model then
              QCheck.Test.fail_reportf "after %a: live_entries %d, model %d" pp_op op
                (Memo.live_entries memo) (M.cardinal !model);
            true)
          ops)
end

(* Allocation guard for the hot probes: once a vertex table has grown, a
   Visit or Dedup hit on a key built outside the loop allocates nothing.
   Measured: 0 words for the 2 000 probes (the bound leaves room for the
   boxed floats [Gc.minor_words] itself returns). *)
let test_memo_hits_allocate_nothing () =
  let m = Memo.create () in
  for v = 0 to 999 do
    ignore (Memo.min_int_update m ~qid:0 ~label:1 v 3 : Memo.visit_outcome);
    ignore (Memo.add_if_absent m ~qid:0 ~label:2 (Value.Vertex v) : bool)
  done;
  let key = Value.Vertex 500 in
  Gc.minor ();
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Memo.min_int_update m ~qid:0 ~label:1 500 3 : Memo.visit_outcome);
    ignore (Memo.add_if_absent m ~qid:0 ~label:2 key : bool)
  done;
  let words = int_of_float (Gc.minor_words () -. before) in
  if words > 8 then Alcotest.failf "2000 memo hits allocated %d words (bound 8)" words

(* Allocation guard for Visit writes: a first visit and an improvement
   keep the distance unboxed beside the vertex table. Each of 100 warm
   queries visits 20 vertices and improves each once (tables within the
   pool's cap). Measured 0 words for the 4 000 writes; 16 000 when each
   stored a boxed [Scalar (Int d)]. A record that leaves the memo reads
   back boxed. *)
let test_memo_visit_writes_allocate_nothing () =
  let m = Memo.create () in
  let run qid =
    for v = 0 to 19 do
      ignore (Memo.min_int_update m ~qid ~label:1 v 50 : Memo.visit_outcome);
      ignore (Memo.min_int_update m ~qid ~label:1 v 40 : Memo.visit_outcome)
    done
  in
  run 0;
  Memo.clear_query m 0;
  Gc.minor ();
  let before = Gc.minor_words () in
  for qid = 1 to 100 do
    run qid;
    Memo.clear_query m qid
  done;
  let words = int_of_float (Gc.minor_words () -. before) in
  if words > 8 then Alcotest.failf "4000 visit writes allocated %d words (bound 8)" words;
  run 101;
  match Memo.extract_for_key m (Value.Vertex 7) with
  | [ (101, 1, Memo.Scalar (Value.Int 40)) ] -> ()
  | _ -> Alcotest.fail "the extracted Visit record is not (101, 1, Int 40)"

(* Allocation guard for query set-up and tear-down: once one query has
   run, each of 1 000 fresh qids writes two prebuilt vertex keys to each
   of two labels (creating both stores) and is cleared. Measured 0 words;
   111 000 for a memo that builds each query's record, label array and
   stores anew. The bound leaves room for the boxed floats
   [Gc.minor_words] itself returns. *)
let test_memo_lifecycle_allocates_nothing () =
  let m = Memo.create () in
  let keys = [| Value.Vertex 3; Value.Vertex 7 |] in
  let run qid =
    for i = 0 to Array.length keys - 1 do
      ignore (Memo.add_if_absent m ~qid ~label:1 keys.(i) : bool);
      ignore (Memo.add_if_absent m ~qid ~label:4 keys.(i) : bool)
    done;
    Memo.clear_query m qid
  in
  run 0;
  Gc.minor ();
  let before = Gc.minor_words () in
  for qid = 1 to 1000 do
    run qid
  done;
  let words = int_of_float (Gc.minor_words () -. before) in
  Alcotest.(check int) "memo empty" 0 (Memo.live_entries m);
  if words > 8 then Alcotest.failf "1000 warm query lifecycles allocated %d words (bound 8)" words

(* Allocation guard for reads that find nothing: an aggregate flush or a
   join probe for a query this partition never saw, or for a label the
   live query has not written. Measured 0 words for the 3 000 reads;
   91 163 for a memo that creates the query and its stores on a read.
   Same bound as above. *)
let test_memo_absent_reads_allocate_nothing () =
  let m = Memo.create () in
  ignore (Memo.add_if_absent m ~qid:0 ~label:1 (Value.Vertex 1) : bool);
  let key = Value.Vertex 1 in
  Gc.minor ();
  let before = Gc.minor_words () in
  for qid = 1 to 1000 do
    ignore (Memo.partial_opt m ~qid ~label:3 : Aggregate.t option);
    ignore (Memo.rows_get m ~qid ~label:2 key : Value.t array list);
    ignore (Memo.partial_opt m ~qid:0 ~label:qid : Aggregate.t option)
  done;
  let words = int_of_float (Gc.minor_words () -. before) in
  Alcotest.(check int) "one live record" 1 (Memo.live_entries m);
  if words > 8 then Alcotest.failf "3000 absent memo reads allocated %d words (bound 8)" words

(* --- Aggregate --- *)

let accumulate_ints agg values =
  let g = Lazy.force dummy_graph in
  let state = Aggregate.create g agg in
  List.iter
    (fun v ->
      let regs = [| Value.Int v |] in
      Aggregate.accumulate agg state g ~vertex:0 ~regs)
    values;
  Aggregate.finalize state

let agg_count_matches =
  QCheck.Test.make ~name:"count aggregate" ~count:200
    QCheck.(list small_int)
    (fun xs -> accumulate_ints Step.Count xs = Value.Int (List.length xs))

let agg_sum_matches =
  QCheck.Test.make ~name:"sum aggregate" ~count:200
    QCheck.(list small_int)
    (fun xs ->
      accumulate_ints (Step.Sum (Step.Reg 0)) xs = Value.Int (List.fold_left ( + ) 0 xs))

let agg_max_matches =
  QCheck.Test.make ~name:"max aggregate" ~count:200
    QCheck.(list small_int)
    (fun xs ->
      let result = accumulate_ints (Step.Max (Step.Reg 0)) xs in
      match xs with
      | [] -> Value.is_null result
      | _ -> result = Value.Int (List.fold_left max min_int xs))

let agg_merge_equals_concat =
  QCheck.Test.make ~name:"merge(a,b) = accumulate(a @ b)" ~count:200
    QCheck.(pair (list small_int) (list small_int))
    (fun (xs, ys) ->
      let g = Lazy.force dummy_graph in
      let agg = Step.Sum (Step.Reg 0) in
      let left = Aggregate.create g agg and right = Aggregate.create g agg in
      List.iter (fun v -> Aggregate.accumulate agg left g ~vertex:0 ~regs:[| Value.Int v |]) xs;
      List.iter (fun v -> Aggregate.accumulate agg right g ~vertex:0 ~regs:[| Value.Int v |]) ys;
      Aggregate.merge ~into:left right;
      Aggregate.finalize left = accumulate_ints agg (xs @ ys))

let test_agg_topk_ties_by_output () =
  let g = Lazy.force dummy_graph in
  let agg = Step.Topk { k = 2; score = Step.Reg 0; output = Step.Reg 1 } in
  let state = Aggregate.create g agg in
  let feed score output =
    Aggregate.accumulate agg state g ~vertex:0 ~regs:[| Value.Int score; Value.Vertex output |]
  in
  feed 10 3;
  feed 10 1;
  feed 10 2;
  feed 5 9;
  match Aggregate.finalize state with
  | Value.List [ Value.Vertex a; Value.Vertex b ] ->
    (* Equal scores: smaller vertex id wins the tie; best first. *)
    Alcotest.(check (pair int int)) "tie break" (1, 2) (a, b)
  | other -> Alcotest.fail (Fmt.str "unexpected %a" Value.pp other)

let test_agg_group_count () =
  match accumulate_ints (Step.Group_count (Step.Reg 0)) [ 1; 2; 1; 1 ] with
  | Value.List [ Value.List [ Value.Int 1; Value.Int 3 ]; Value.List [ Value.Int 2; Value.Int 1 ] ]
    ->
    ()
  | other -> Alcotest.fail (Fmt.str "unexpected %a" Value.pp other)

let test_agg_collect_limit () =
  match accumulate_ints (Step.Collect { expr = Step.Reg 0; limit = Some 2 }) [ 5; 6; 7; 8 ] with
  | Value.List l -> Alcotest.(check int) "limited" 2 (List.length l)
  | other -> Alcotest.fail (Fmt.str "unexpected %a" Value.pp other)

(* Scores that tie under [Value.compare] without being equal: [Int 3]
   and [Float 3.0] compare 0, and a string sorts after every number. *)
let tie_score =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun i -> Value.Int i) (int_range 0 5));
        (4, map (fun i -> Value.Float (float_of_int i)) (int_range 0 5));
        (1, map (fun s -> Value.Str s) (oneofl [ "a"; "bcd" ]));
      ])

(* Scores with unit outputs: ties are between scores alone. *)
let topk_of ~k xs =
  let cmp s1 () s2 () = Value.compare s1 s2 in
  let t = Topk.create ~k ~cmp ~dummy_score:Value.Null ~dummy_output:() in
  List.iter (fun x -> Topk.add t x ()) xs;
  t

(* [Topk.merge] keeps exactly what feeding the source's sorted list,
   worst first, to [add] kept: under ties the kept set depends on that
   order. Results are compared structurally, so [Int 3] for [Float 3.0]
   is a difference. *)
let topk_merge_matches_list_reference =
  QCheck.Test.make ~name:"topk merge equals the list-based merge" ~count:300
    QCheck.(
      make
        ~print:Print.(triple int (list Value.to_string) (list Value.to_string))
        Gen.(triple (int_range 0 6) (list_size (int_range 0 12) tie_score)
               (list_size (int_range 0 12) tie_score)))
    (fun (k, xs, ys) ->
      let merged = topk_of ~k xs and reference = topk_of ~k xs and src = topk_of ~k ys in
      let src_before = Topk.to_sorted_list src in
      Topk.merge ~into:merged src;
      List.iter (fun (x, ()) -> Topk.add reference x ()) (List.rev src_before);
      Topk.to_sorted_list merged = Topk.to_sorted_list reference
      && Topk.to_sorted_list src = src_before)

(* [Aggregate.bytes] of a top-k partial is the sum over its kept (score,
   output) pairs that the sorted list used to give. Outputs are distinct
   vertices, so the finalized outputs name the kept pairs. *)
let agg_topk_bytes_matches_sorted_sum =
  QCheck.Test.make ~name:"topk partial bytes equal the sorted-list sum" ~count:300
    QCheck.(
      make
        ~print:Print.(pair int (list Value.to_string))
        Gen.(pair (int_range 0 6) (list_size (int_range 0 12) tie_score)))
    (fun (k, scores) ->
      let g = Lazy.force dummy_graph in
      let agg = Step.Topk { k; score = Step.Reg 0; output = Step.Reg 1 } in
      let state = Aggregate.create g agg in
      let scores = Array.of_list scores in
      Array.iteri
        (fun i s -> Aggregate.accumulate agg state g ~vertex:0 ~regs:[| s; Value.Vertex i |])
        scores;
      let expected =
        match Aggregate.finalize state with
        | Value.List outputs ->
          List.fold_left
            (fun acc o ->
              match o with
              | Value.Vertex i -> acc + Value.bytes scores.(i) + Value.bytes o
              | _ -> invalid_arg "non-vertex output")
            8 outputs
        | _ -> invalid_arg "non-list top-k"
      in
      Aggregate.bytes state = expected)

(* --- Recycled partials --- *)

let every_agg_kind =
  [
    Step.Count;
    Step.Sum (Step.Reg 0);
    Step.Max (Step.Reg 0);
    Step.Min (Step.Reg 0);
    Step.Topk { k = 3; score = Step.Reg 0; output = Step.Reg 1 };
    Step.Collect { expr = Step.Reg 0; limit = Some 4 };
    Step.Group_count (Step.Reg 0);
  ]

(* Scores in register 0, distinct vertices as outputs in register 1. *)
let feed agg state xs =
  let g = Lazy.force dummy_graph in
  List.iteri
    (fun i x -> Aggregate.accumulate agg state g ~vertex:0 ~regs:[| Value.Int x; Value.Vertex i |])
    xs

(* A state filled by one query and [reset] behaves as a fresh one for
   the next: the same finalized value and the same wire size. *)
let agg_recycled_equals_fresh =
  QCheck.Test.make ~name:"a recycled partial finalizes as a fresh one" ~count:200
    QCheck.(pair (list small_int) (list small_int))
    (fun (xs, ys) ->
      let g = Lazy.force dummy_graph in
      List.for_all
        (fun agg ->
          let recycled = Aggregate.create g agg and fresh = Aggregate.create g agg in
          feed agg recycled xs;
          Aggregate.reset recycled;
          feed agg recycled ys;
          feed agg fresh ys;
          Aggregate.fits g agg recycled
          && Aggregate.finalize recycled = Aggregate.finalize fresh
          && Aggregate.bytes recycled = Aggregate.bytes fresh)
        every_agg_kind)

(* A cleared query's partial serves the next query that aggregates with
   the same shape, emptied; another shape gets a state of its own. *)
let test_memo_recycles_partials () =
  let g = Lazy.force dummy_graph in
  let m = Memo.create () in
  let top3 = Step.Topk { k = 3; score = Step.Reg 0; output = Step.Reg 1 } in
  let p0 = Memo.partial m ~qid:0 ~label:2 g top3 in
  feed top3 p0 [ 5; 1; 9 ];
  Memo.clear_query m 0;
  let p1 = Memo.partial m ~qid:1 ~label:5 g top3 in
  Alcotest.(check bool) "same state" true (p0 == p1);
  Alcotest.(check bool) "emptied" true (Aggregate.finalize p1 = Value.List []);
  Alcotest.(check int) "one live entry" 1 (Memo.live_entries m);
  Memo.clear_query m 1;
  let top5 = Step.Topk { k = 5; score = Step.Reg 0; output = Step.Reg 1 } in
  Alcotest.(check bool) "another k, another state" true
    (Memo.partial m ~qid:2 ~label:5 g top5 != p0);
  Alcotest.(check bool) "another kind, another state" true
    (Memo.partial m ~qid:2 ~label:6 g Step.Count != p0);
  Alcotest.(check bool) "the kept one still fits top-3" true
    (Memo.partial m ~qid:3 ~label:0 g top3 == p0)

(* Allocation guard for the partial lifecycle of §III-C, as one
   partition and the coordinator see it: once one query has run, each of
   1 000 fresh qids fetches a Count, Max, Min and top-10 partial, feeds
   each 16 traversers whose expressions read registers only, merges each
   into the coordinator's accumulator (a memo entry of its own, as the
   async engine keeps it) and clears both memos. Bound 0 words per
   query; measured 0. A memo that builds each partial anew, a top-k that
   pairs (score, output) or grows its lanes, or a merge that copies its
   source into a fresh heap fails it. *)
let test_warm_aggregate_allocates_nothing () =
  let g = Lazy.force dummy_graph in
  let memo = Memo.create () and coordinator = Memo.create () in
  let regs = Array.init 16 (fun i -> [| Value.Int (i * 7 mod 5); Value.Vertex i |]) in
  let aggs =
    [|
      Step.Count;
      Step.Max (Step.Reg 0);
      Step.Min (Step.Reg 0);
      Step.Topk { k = 10; score = Step.Reg 0; output = Step.Reg 1 };
    |]
  in
  let run qid =
    for label = 0 to Array.length aggs - 1 do
      let agg = aggs.(label) in
      let p = Memo.partial memo ~qid ~label g agg in
      for i = 0 to Array.length regs - 1 do
        Aggregate.accumulate agg p g ~vertex:0 ~regs:regs.(i)
      done;
      Aggregate.merge ~into:(Memo.partial coordinator ~qid ~label g agg) p
    done;
    Memo.clear_query coordinator qid;
    Memo.clear_query memo qid
  in
  run 0;
  Gc.minor ();
  let before = Gc.minor_words () in
  for qid = 1 to 1000 do
    run qid
  done;
  let per_query = (Gc.minor_words () -. before) /. 1000. in
  Alcotest.(check int) "memos empty" 0 (Memo.live_entries memo + Memo.live_entries coordinator);
  if per_query > 0. then
    Alcotest.failf "a warm aggregating query allocated %.2f words (bound 0)" per_query

(* --- Typed top-k --- *)

(* A graph of [cells] vertices whose "w" property is an Ints column with
   holes ([None] cells). Every vertex carries a second, always present
   property, so the column exists however many holes there are. *)
let weighted_graph cells =
  let b = Builder.create () in
  Array.iteri
    (fun v cell ->
      let w = match cell with None -> [] | Some n -> [ ("w", Value.Int n) ] in
      ignore (Builder.add_vertex b ~label:"v" ~props:(("id", Value.Int v) :: w) ()))
    cells;
  let g = Builder.build b in
  (g, Schema.property_key (Graph.schema g) "w")

(* The boxed twin of [Topk { score = Prop key; output = Vertex_id }]:
   the same (score, output) values, read from registers. *)
let boxed_topk k = Step.Topk { k; score = Step.Reg 0; output = Step.Reg 1 }

let boxed_regs g ~key v = [| Graph.vertex_prop g ~key v; Value.Vertex v |]

(* Cells from a narrow range, so scores tie, with holes and the extreme
   ints; partials are vertex lists (repeats allowed) merged in a random
   order. *)
let typed_topk_case =
  QCheck.Gen.(
    let cell =
      frequency
        [
          (2, return None);
          (6, map Option.some (int_range (-3) 3));
          (1, map Option.some (oneofl [ min_int; max_int; 0 ]));
        ]
    in
    int_range 1 30 >>= fun n ->
    let vertex = int_range 0 (n - 1) in
    quad
      (array_repeat n cell)
      (oneofl [ 1; 10; 20 ])
      (list_size (int_range 1 5) (list_size (int_range 0 25) vertex))
      (list_size (return 5) (int_range 0 1000)))

(* The typed top-k decides, merges, finalizes and counts bytes exactly
   as the boxed state fed the same values does: per partial, and for an
   accumulator that merges the partials in a random order, recycled
   ([reset]) between two rounds. *)
let agg_typed_topk_matches_boxed =
  QCheck.Test.make ~name:"typed top-k matches the boxed one" ~count:400
    (QCheck.make
       ~print:QCheck.Print.(quad (array (option int)) int (list (list int)) (list int))
       typed_topk_case)
    (fun (cells, k, partials, order) ->
      let g, key = weighted_graph cells in
      let typed = Step.Topk { k; score = Step.Prop key; output = Step.Vertex_id } in
      let boxed = boxed_topk k in
      let fill agg regs vertices =
        let st = Aggregate.create g agg in
        List.iter (fun v -> Aggregate.accumulate agg st g ~vertex:v ~regs:(regs v)) vertices;
        st
      in
      let ts = List.map (fill typed (fun _ -> [||])) partials in
      let bs = List.map (fill boxed (boxed_regs g ~key)) partials in
      (* The merge order: partial indices sorted by a drawn priority
         each (at most five partials, five priorities). *)
      let perm =
        List.mapi (fun i _ -> (List.nth order i, i)) partials |> List.sort compare |> List.map snd
      in
      let same t b =
        Aggregate.finalize t = Aggregate.finalize b && Aggregate.bytes t = Aggregate.bytes b
      in
      let t_acc = Aggregate.create g typed and b_acc = Aggregate.create g boxed in
      let round () =
        Aggregate.reset t_acc;
        Aggregate.reset b_acc;
        List.iter
          (fun i ->
            Aggregate.merge ~into:t_acc (List.nth ts i);
            Aggregate.merge ~into:b_acc (List.nth bs i))
          perm;
        same t_acc b_acc
      in
      (* A typed state does not fit the boxed shape; a boxed one would.
         With no cell present there is no column, so the state is boxed. *)
      Aggregate.fits g boxed t_acc = Array.for_all Option.is_none cells
      && List.for_all2 same ts bs && round () && round ())

(* A pooled typed top-k serves only a top-k of the same k by the same
   column: a boxed top-k of that k, or a typed one by another column,
   gets a state of its own, and so does the typed one after a boxed
   state was pooled. *)
let test_typed_partial_fits_its_shape () =
  let b = Builder.create () in
  for v = 0 to 3 do
    let props = [ ("w", Value.Int v); ("x", Value.Int (-v)) ] in
    ignore (Builder.add_vertex b ~label:"v" ~props ())
  done;
  let g = Builder.build b in
  let key = Schema.property_key (Graph.schema g) in
  let by k = Step.Topk { k = 3; score = Step.Prop (key k); output = Step.Vertex_id } in
  let m = Memo.create () in
  let typed = Memo.partial m ~qid:0 ~label:0 g (by "w") in
  Memo.clear_query m 0;
  let boxed = Memo.partial m ~qid:1 ~label:0 g (boxed_topk 3) in
  let by_x = Memo.partial m ~qid:1 ~label:1 g (by "x") in
  Alcotest.(check bool) "boxed shape, another state" true (boxed != typed);
  Alcotest.(check bool) "another column, another state" true (by_x != typed);
  Memo.clear_query m 1;
  let again = Memo.partial m ~qid:2 ~label:0 g (by "w") in
  Alcotest.(check bool) "the typed state comes back" true (again == typed);
  List.iter (fun v -> Aggregate.accumulate (by "w") again g ~vertex:v ~regs:[||]) [ 0; 1; 2; 3 ];
  Alcotest.(check bool) "reads its own column" true
    (Aggregate.finalize again = Value.List [ Value.Vertex 3; Value.Vertex 2; Value.Vertex 1 ]);
  Memo.clear_query m 2;
  let boxed_again = Memo.partial m ~qid:3 ~label:0 g (boxed_topk 3) in
  Alcotest.(check bool) "the boxed state comes back" true (boxed_again == boxed)

(* Allocation guard for the typed top-k: once warm, 10 000 accumulates
   of a top-10 by an Ints column with holes, a merge into a second
   state and two resets allocate nothing. Bound 0 words, measured 0;
   the boxed state fed [Prop] and [Vertex_id] allocates about 4 words
   per accumulate that passes its worst-score filter. *)
let test_typed_topk_allocates_nothing () =
  let cells = Array.init 64 (fun v -> if v mod 5 = 0 then None else Some (v * 37 mod 11)) in
  let g, key = weighted_graph cells in
  let agg = Step.Topk { k = 10; score = Step.Prop key; output = Step.Vertex_id } in
  let p = Aggregate.create g agg and acc = Aggregate.create g agg in
  let run () =
    for i = 0 to 9_999 do
      Aggregate.accumulate agg p g ~vertex:(i * 13 mod 64) ~regs:[||]
    done;
    Aggregate.merge ~into:acc p;
    Aggregate.reset p;
    Aggregate.reset acc
  in
  run ();
  Gc.minor ();
  let before = Gc.minor_words () in
  run ();
  let words = Gc.minor_words () -. before in
  if words > 0. then Alcotest.failf "a warm typed top-k allocated %.0f words (bound 0)" words

(* --- Typed group count --- *)

(* A graph of [cells] vertices whose "s" property is a Strs column with
   holes, as [weighted_graph] builds an Ints one. *)
let named_graph cells =
  let b = Builder.create () in
  Array.iteri
    (fun v cell ->
      let s = match cell with None -> [] | Some x -> [ ("s", Value.Str x) ] in
      ignore (Builder.add_vertex b ~label:"v" ~props:(("id", Value.Int v) :: s) ()))
    cells;
  let g = Builder.build b in
  (g, Schema.property_key (Graph.schema g) "s")

(* A few names, so groups repeat, including the empty string. *)
let typed_group_case =
  QCheck.Gen.(
    let cell = frequency [ (2, return None); (6, map Option.some (oneofl [ ""; "a"; "b"; "Tag_1"; "zz" ])) ] in
    int_range 1 30 >>= fun n ->
    let vertex = int_range 0 (n - 1) in
    triple (array_repeat n cell)
      (list_size (int_range 1 5) (list_size (int_range 0 25) vertex))
      (list_size (return 5) (int_range 0 1000)))

(* The typed group count (keyed by the cell's own string, empty cells
   counted apart) merges, finalizes and counts bytes exactly as the
   boxed state fed the cell values from a register: per partial, and
   for an accumulator that merges the partials in a random order,
   recycled ([reset]) between two rounds. Each state fits only its own
   shape. *)
let agg_typed_group_matches_boxed =
  QCheck.Test.make ~name:"typed group count matches the boxed one" ~count:400
    (QCheck.make
       ~print:QCheck.Print.(triple (array (option string)) (list (list int)) (list int))
       typed_group_case)
    (fun (cells, partials, order) ->
      let g, key = named_graph cells in
      let typed = Step.Group_count (Step.Prop key) in
      let boxed = Step.Group_count (Step.Reg 0) in
      let fill agg regs vertices =
        let st = Aggregate.create g agg in
        List.iter (fun v -> Aggregate.accumulate agg st g ~vertex:v ~regs:(regs v)) vertices;
        st
      in
      let ts = List.map (fill typed (fun _ -> [||])) partials in
      let bs = List.map (fill boxed (fun v -> [| Graph.vertex_prop g ~key v |])) partials in
      let perm =
        List.mapi (fun i _ -> (List.nth order i, i)) partials |> List.sort compare |> List.map snd
      in
      let same t b =
        Aggregate.finalize t = Aggregate.finalize b && Aggregate.bytes t = Aggregate.bytes b
      in
      let t_acc = Aggregate.create g typed and b_acc = Aggregate.create g boxed in
      let round () =
        Aggregate.reset t_acc;
        Aggregate.reset b_acc;
        List.iter
          (fun i ->
            Aggregate.merge ~into:t_acc (List.nth ts i);
            Aggregate.merge ~into:b_acc (List.nth bs i))
          perm;
        same t_acc b_acc
      in
      (* With no cell present there is no column, so the state is boxed. *)
      let no_column = Array.for_all Option.is_none cells in
      Aggregate.fits g boxed t_acc = no_column
      && Aggregate.fits g typed t_acc
      && Aggregate.fits g typed b_acc = no_column
      && List.for_all2 same ts bs && round () && round ())

(* Allocation guard for the typed group count: once its groups exist,
   10 000 accumulates over a Strs column with holes allocate nothing.
   Bound 0 words, measured 0; the boxed state boxes a [Value.Str] per
   accumulate, 2 words. *)
let test_typed_group_allocates_nothing () =
  let cells = Array.init 64 (fun v -> if v mod 5 = 0 then None else Some (Printf.sprintf "n%d" (v mod 7))) in
  let g, key = named_graph cells in
  let agg = Step.Group_count (Step.Prop key) in
  let p = Aggregate.create g agg in
  let run () =
    for i = 0 to 9_999 do
      Aggregate.accumulate agg p g ~vertex:(i * 13 mod 64) ~regs:[||]
    done
  in
  run ();
  Gc.minor ();
  let before = Gc.minor_words () in
  run ();
  let words = Gc.minor_words () -. before in
  if words > 0. then Alcotest.failf "a warm typed group count allocated %.0f words (bound 0)" words

(* --- Program validation --- *)

let filter_step next = { Step.op = Step.Filter Step.True; next }
let emit_step = { Step.op = Step.Emit [| Step.Vertex_id |]; next = -1 }
let source_step next = { Step.op = Step.Scan { vertex_label = None }; next }

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

(* [Program.make] rejects [steps], and by the rule whose message holds
   [says]: a case must not pass because some other rule fired first. *)
let check_invalid name ~says steps ~entries ~n_registers =
  Alcotest.test_case name `Quick (fun () ->
      match Program.make ~name ~steps ~n_registers ~entries with
      | _ -> Alcotest.fail "expected Program.Invalid"
      | exception Program.Invalid msg ->
        if not (contains msg says) then
          Alcotest.failf "expected a rejection saying %S, got %S" says msg)

let test_program_valid () =
  let p =
    Program.make ~name:"ok"
      ~steps:[| source_step 1; filter_step 2; emit_step |]
      ~n_registers:1 ~entries:[| 0 |]
  in
  Alcotest.(check int) "one phase" 1 (Program.n_phases p);
  Alcotest.(check int) "steps" 3 (Program.n_steps p)

let test_program_phases () =
  let p =
    Program.make ~name:"agg"
      ~steps:
        [|
          source_step 1;
          { Step.op = Step.Aggregate { agg = Step.Count; reg = 0 }; next = 2 };
          { Step.op = Step.Emit [| Step.Reg 0 |]; next = -1 };
        |]
      ~n_registers:1 ~entries:[| 0 |]
  in
  Alcotest.(check int) "two phases" 2 (Program.n_phases p);
  Alcotest.(check int) "source phase" 0 (Program.phase_of_step p 0);
  Alcotest.(check int) "emit phase" 1 (Program.phase_of_step p 2);
  Alcotest.(check (option int)) "agg of phase 0" (Some 1) (Program.agg_of_phase p 0);
  Alcotest.(check (option int)) "no agg in final phase" None (Program.agg_of_phase p 1)

let test_program_join_partner () =
  let join side cont =
    {
      Step.op =
        Step.Join
          { join_id = 0; side; key = Step.Vertex_id; store = [||]; load_regs = [||]; cont };
      next = -1;
    }
  in
  let p =
    Program.make ~name:"join"
      ~steps:[| source_step 1; join Step.Side_a 4; source_step 3; join Step.Side_b 4; emit_step |]
      ~n_registers:1 ~entries:[| 0; 2 |]
  in
  Alcotest.(check int) "partner of A" 3 (Program.join_partner p 1);
  Alcotest.(check int) "partner of B" 1 (Program.join_partner p 3)

(* A register error names the step, its op and the register, exactly as
   [Program.make] has always worded it; the context is formatted only
   once a check fails. *)
let test_program_register_message () =
  let expect msg steps =
    match Program.make ~name:"regs" ~steps ~n_registers:1 ~entries:[| 0 |] with
    | _ -> Alcotest.fail "expected Program.Invalid"
    | exception Program.Invalid got -> Alcotest.(check string) "message" msg got
  in
  expect "step 1 (set_reg): register 3 out of range"
    [| source_step 1; { Step.op = Step.Set_reg { reg = 3; expr = Step.Vertex_id }; next = 2 }; emit_step |];
  expect "step 2 (filter): register 4 out of range"
    [|
      source_step 1;
      filter_step 2;
      { Step.op = Step.Filter (Step.Cmp (Step.Ne, Step.Vertex_id, Step.Reg 4)); next = 3 };
      emit_step;
    |]

let count_step ~next = { Step.op = Step.Aggregate { agg = Step.Count; reg = 0 }; next }

let join_step ~side ~store ~cont =
  {
    Step.op =
      Step.Join { join_id = 0; side; key = Step.Vertex_id; store; load_regs = [||]; cont };
    next = -1;
  }

let invalid_cases =
  [
    check_invalid "empty program" ~says:"empty program" [||] ~entries:[| 0 |] ~n_registers:0;
    check_invalid "no entries" ~says:"no entry steps" [| source_step 1; emit_step |] ~entries:[||]
      ~n_registers:0;
    check_invalid "entry not a source" ~says:"is not a source" [| filter_step 1; emit_step |]
      ~entries:[| 0 |] ~n_registers:0;
    check_invalid "unlisted source" ~says:"not listed as an entry"
      [| source_step 1; { Step.op = Step.Scan { vertex_label = None }; next = 2 }; emit_step |]
      ~entries:[| 0 |] ~n_registers:0;
    check_invalid "next out of range" ~says:"next target 5 out of range" [| source_step 5 |]
      ~entries:[| 0 |] ~n_registers:0;
    (* A non-Emit step with no successor would finish its traversers'
       weight without its semantics asking for it. *)
    check_invalid "step without successor" ~says:"next target -1 out of range"
      [| source_step 1; filter_step (-1) |]
      ~entries:[| 0 |] ~n_registers:0;
    check_invalid "emit with successor" ~says:"emit must be terminal"
      [| source_step 1; { Step.op = Step.Emit [||]; next = 0 } |]
      ~entries:[| 0 |] ~n_registers:0;
    check_invalid "register out of range" ~says:"register 3 out of range"
      [| source_step 1; { Step.op = Step.Set_reg { reg = 3; expr = Step.Vertex_id }; next = 2 }; emit_step |]
      ~entries:[| 0 |] ~n_registers:1;
    check_invalid "negative register in a filter" ~says:"register -1 out of range"
      [|
        source_step 1;
        { Step.op = Step.Filter (Step.Cmp (Step.Eq, Step.Reg (-1), Step.Const (Value.Int 1))); next = 2 };
        emit_step;
      |]
      ~entries:[| 0 |] ~n_registers:1;
    check_invalid "unreachable step" ~says:"is unreachable"
      [| source_step 2; filter_step 2; emit_step |]
      ~entries:[| 0 |] ~n_registers:0;
    (* Step 2 is reached from an entry in phase 0 and through the
       aggregate boundary in phase 1. *)
    check_invalid "reachable in two phases" ~says:"reachable in phases"
      [| source_step 1; count_step ~next:2; emit_step; source_step 2 |]
      ~entries:[| 0; 3 |] ~n_registers:1;
    (* Only one aggregate closes a phase; the other's partial would never
       be combined. *)
    check_invalid "two aggregates in one phase" ~says:"two aggregate steps"
      [| source_step 1; count_step ~next:4; source_step 3; count_step ~next:4; emit_step |]
      ~entries:[| 0; 2 |] ~n_registers:1;
    check_invalid "unpaired join" ~says:"missing a side"
      [| source_step 1; join_step ~side:Step.Side_a ~store:[||] ~cont:2; emit_step |]
      ~entries:[| 0 |] ~n_registers:0;
    check_invalid "join arity mismatch" ~says:"side A stores 1 values but side B loads 0"
      [|
        source_step 1;
        join_step ~side:Step.Side_a ~store:[| Step.Vertex_id |] ~cont:4;
        source_step 3;
        join_step ~side:Step.Side_b ~store:[||] ~cont:4;
        emit_step;
      |]
      ~entries:[| 0; 2 |] ~n_registers:0;
    check_invalid "visit cont out of range" ~says:"cont target 9 out of range"
      [|
        source_step 1;
        { Step.op = Step.Set_reg { reg = 0; expr = Step.Const (Value.Int 0) }; next = 2 };
        { Step.op = Step.Visit { dist_reg = 0; max_hops = 2; cont = 9; emit_improved = false }; next = 3 };
        { Step.op = Step.Expand { dir = Graph.Out; edge_label = None }; next = 2 };
        emit_step;
      |]
      ~entries:[| 0 |] ~n_registers:1;
  ]

(* --- Step expression evaluation --- *)

let test_step_eval () =
  let b = Builder.create () in
  let v0 = Builder.add_vertex b ~label:"A" ~props:[ ("x", Value.Int 10) ] () in
  let v1 = Builder.add_vertex b ~label:"B" ~props:[ ("x", Value.Int 20) ] () in
  ignore (Builder.add_edge b ~src:v0 ~label:"e" ~dst:v1 ());
  let g = Builder.build b in
  let x = Schema.property_key_exn (Graph.schema g) "x" in
  let regs = [| Value.Vertex v1 |] in
  let eval e = Step.eval_expr g ~vertex:v0 ~regs e in
  Alcotest.(check bool) "vertex_id" true (Value.equal (Value.Vertex 0) (eval Step.Vertex_id));
  Alcotest.(check bool) "prop" true (Value.equal (Value.Int 10) (eval (Step.Prop x)));
  Alcotest.(check bool) "prop_of reg" true
    (Value.equal (Value.Int 20) (eval (Step.Prop_of { reg = 0; key = x })));
  Alcotest.(check bool) "add" true
    (Value.equal (Value.Int 11) (eval (Step.Add (Step.Prop x, Step.Const (Value.Int 1)))));
  Alcotest.(check bool) "label expr" true
    (Value.equal
       (Value.Int (Schema.vertex_label_exn (Graph.schema g) "A"))
       (eval Step.Vertex_label));
  let pred = Step.And (Step.Cmp (Step.Ge, Step.Prop x, Step.Const (Value.Int 10)), Step.Not (Step.Cmp (Step.Eq, Step.Vertex_id, Step.Reg 0))) in
  Alcotest.(check bool) "pred" true (Step.eval_pred g ~vertex:v0 ~regs pred)

(* A graph whose property columns cover every shape a filter can meet:
   an Ints column with holes (missing reads as Null), a Floats column, a
   Mixed column (ints and strings), a key with no column at all, and a
   Strs column with holes. *)
let filter_strs = [| "a"; "b"; "s"; "zz" |]

let filter_graph =
  lazy
    (let b = Builder.create () in
     for v = 0 to 11 do
       let ints = if v mod 3 = 0 then [] else [ ("ints", Value.Int (v - 5)) ] in
       let mixed = ("mixed", if v mod 2 = 0 then Value.Int (v - 6) else Value.Str "s") in
       let strs = if v mod 4 = 1 then [] else [ ("strs", Value.Str filter_strs.(v mod 4)) ] in
       ignore
         (Builder.add_vertex b ~label:"v"
            ~props:(ints @ [ ("floats", Value.Float (float_of_int v /. 2.)); mixed ] @ strs)
            ())
     done;
     Builder.build b)

let filter_keys g =
  let key = Schema.property_key (Graph.schema g) in
  [| key "ints"; key "floats"; key "mixed"; key "no-such-column"; key "strs" |]

let all_cmps = [| Step.Eq; Step.Ne; Step.Lt; Step.Le; Step.Gt; Step.Ge |]

(* Whether [cmp] holds of a [Value.compare] result. *)
let holds cmp c =
  match cmp with
  | Step.Eq -> c = 0
  | Step.Ne -> c <> 0
  | Step.Lt -> c < 0
  | Step.Le -> c <= 0
  | Step.Gt -> c > 0
  | Step.Ge -> c >= 0

(* The unboxed compare of a property against an int constant decides as
   the boxed [Value.compare] of the property's value does, on every
   column shape. *)
let filter_int_const_matches_boxed =
  QCheck.Test.make ~name:"int-constant filter matches the boxed compare" ~count:500
    QCheck.(quad (int_range 0 11) (int_range 0 4) (int_range (-8) 8) (int_range 0 5))
    (fun (v, k, n, c) ->
      let g = Lazy.force filter_graph in
      let key = (filter_keys g).(k) and cmp = all_cmps.(c) in
      let boxed = Value.compare (Graph.vertex_prop g ~key v) (Value.Int n) in
      Graph.compare_vertex_prop g ~key v (Value.Int n) = boxed
      && Step.eval_pred g ~vertex:v ~regs:[||] (Step.Cmp (cmp, Step.Prop key, Step.Const (Value.Int n)))
         = holds cmp boxed)

(* The same for a string constant: a Strs cell is compared unboxed, and
   every other column shape, holes included, as [Value.compare] does. *)
let filter_str_const_matches_boxed =
  QCheck.Test.make ~name:"string-constant filter matches the boxed compare" ~count:500
    QCheck.(
      quad (int_range 0 11) (int_range 0 4) (oneofl [ ""; "a"; "b"; "r"; "s"; "zz"; "zzz" ])
        (int_range 0 5))
    (fun (v, k, str, c) ->
      let g = Lazy.force filter_graph in
      let key = (filter_keys g).(k) and cmp = all_cmps.(c) in
      let boxed = Value.compare (Graph.vertex_prop g ~key v) (Value.Str str) in
      Graph.compare_vertex_prop g ~key v (Value.Str str) = boxed
      && Step.eval_pred g ~vertex:v ~regs:[||]
           (Step.Cmp (cmp, Step.Prop key, Step.Const (Value.Str str)))
         = holds cmp boxed)

(* [where(neq(a))]: the current vertex against a register compares as
   ints when the register holds a vertex, and as [Value.compare] of the
   boxed vertex otherwise. *)
let filter_vertex_reg_matches_boxed =
  QCheck.Test.make ~name:"vertex-register filter matches the boxed compare" ~count:500
    QCheck.(
      triple (int_range 0 11)
        (make
           Gen.(
             oneof
               [
                 map (fun u -> Value.Vertex u) (int_range 0 11);
                 map (fun u -> Value.Int u) (int_range 0 11);
                 oneofl [ Value.Null; Value.Str "s"; Value.Edge 3 ];
               ]))
        (int_range 0 5))
    (fun (v, reg, c) ->
      let g = Lazy.force filter_graph in
      let cmp = all_cmps.(c) in
      Step.eval_pred g ~vertex:v ~regs:[| reg |] (Step.Cmp (cmp, Step.Vertex_id, Step.Reg 0))
      = holds cmp (Value.compare (Value.Vertex v) reg))

(* Allocation guard: [has('ints', ne(3))] over an Ints column reads the
   cell unboxed. 1 200 evaluations, bound 0 words; 2 words each when the
   property came back as a boxed [Value.Int]. *)
let test_int_filter_allocates_nothing () =
  let g = Lazy.force filter_graph in
  let pred = Step.Cmp (Step.Ne, Step.Prop (filter_keys g).(0), Step.Const (Value.Int 3)) in
  let hits = ref 0 in
  Gc.minor ();
  let before = Gc.minor_words () in
  for _ = 1 to 100 do
    for v = 0 to 11 do
      if Step.eval_pred g ~vertex:v ~regs:[||] pred then incr hits
    done
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "ne(3) holds but at vertex 8" 1100 !hits;
  if words > 0. then Alcotest.failf "1200 int filters allocated %.0f words (bound 0)" words

(* Allocation guard for the other two unboxed filters: [has('strs',
   neq('s'))] over a Strs column with holes, and [where(neq(a))] of the
   current vertex against a vertex register. 2 400 evaluations, bound 0
   words; 2 words each when the cell or the vertex came back boxed. *)
let test_str_and_vertex_filters_allocate_nothing () =
  let g = Lazy.force filter_graph in
  let by_str = Step.Cmp (Step.Ne, Step.Prop (filter_keys g).(4), Step.Const (Value.Str "s")) in
  let by_vertex = Step.Cmp (Step.Ne, Step.Vertex_id, Step.Reg 0) in
  let regs = [| Value.Vertex 5 |] in
  let str_hits = ref 0 and vertex_hits = ref 0 in
  Gc.minor ();
  let before = Gc.minor_words () in
  for _ = 1 to 100 do
    for v = 0 to 11 do
      if Step.eval_pred g ~vertex:v ~regs by_str then incr str_hits;
      if Step.eval_pred g ~vertex:v ~regs by_vertex then incr vertex_hits
    done
  done;
  let words = Gc.minor_words () -. before in
  (* "s" sits at vertices 2, 6 and 10; the register holds vertex 5. *)
  Alcotest.(check (pair int int)) "hits" (900, 1100) (!str_hits, !vertex_hits);
  if words > 0. then
    Alcotest.failf "2400 string and vertex filters allocated %.0f words (bound 0)" words

let () =
  Alcotest.run "core"
    [
      ( "weight",
        [
          Alcotest.test_case "basics" `Quick test_weight_basics;
          qcheck weight_split_conserves;
          qcheck weight_split2_conserves;
          qcheck weight_tree_invariant;
        ] );
      ( "progress",
        [
          Alcotest.test_case "tracker completes once" `Quick test_tracker_completes_exactly_once;
          Alcotest.test_case "coalescer merges" `Quick test_coalescer_merges;
          Alcotest.test_case "coalescer drain order" `Quick test_coalescer_drain_order;
          Alcotest.test_case "coalescer discard query" `Quick test_coalescer_discard_query;
          Alcotest.test_case "coalescer tags" `Quick test_coalescer_tags;
          Alcotest.test_case "coalescer no re-entry" `Quick test_coalescer_no_reentry;
        ] );
      ("traverser", [ Alcotest.test_case "copy on write" `Quick test_traverser_copy_on_write ]);
      ("travs", [ qcheck travs_matches_list_model ]);
      ( "memo",
        [
          Alcotest.test_case "dedup" `Quick test_memo_dedup;
          Alcotest.test_case "min dist" `Quick test_memo_min_dist;
          Alcotest.test_case "rows" `Quick test_memo_rows;
          Alcotest.test_case "accounting" `Quick test_memo_accounting;
          Alcotest.test_case "hits allocate nothing" `Quick test_memo_hits_allocate_nothing;
          Alcotest.test_case "visit writes allocate nothing" `Quick
            test_memo_visit_writes_allocate_nothing;
          Alcotest.test_case "a warm query lifecycle allocates nothing" `Quick
            test_memo_lifecycle_allocates_nothing;
          Alcotest.test_case "reads of an absent query allocate nothing" `Quick
            test_memo_absent_reads_allocate_nothing;
          Alcotest.test_case "a cleared partial serves the next query" `Quick
            test_memo_recycles_partials;
          qcheck Memo_model.test;
        ] );
      ( "aggregate",
        [
          Alcotest.test_case "topk ties" `Quick test_agg_topk_ties_by_output;
          Alcotest.test_case "group count" `Quick test_agg_group_count;
          Alcotest.test_case "collect limit" `Quick test_agg_collect_limit;
          qcheck agg_count_matches;
          qcheck agg_sum_matches;
          qcheck agg_max_matches;
          qcheck agg_merge_equals_concat;
          qcheck topk_merge_matches_list_reference;
          qcheck agg_topk_bytes_matches_sorted_sum;
          qcheck agg_recycled_equals_fresh;
          Alcotest.test_case "a warm aggregate allocates nothing" `Quick
            test_warm_aggregate_allocates_nothing;
          qcheck agg_typed_topk_matches_boxed;
          Alcotest.test_case "a typed partial fits only its shape" `Quick
            test_typed_partial_fits_its_shape;
          Alcotest.test_case "a warm typed top-k allocates nothing" `Quick
            test_typed_topk_allocates_nothing;
          qcheck agg_typed_group_matches_boxed;
          Alcotest.test_case "a warm typed group count allocates nothing" `Quick
            test_typed_group_allocates_nothing;
        ] );
      ( "program",
        [
          Alcotest.test_case "valid" `Quick test_program_valid;
          Alcotest.test_case "phases" `Quick test_program_phases;
          Alcotest.test_case "join partner" `Quick test_program_join_partner;
          Alcotest.test_case "register error message" `Quick test_program_register_message;
        ]
        @ invalid_cases );
      ( "step",
        [
          Alcotest.test_case "eval" `Quick test_step_eval;
          qcheck filter_int_const_matches_boxed;
          Alcotest.test_case "an int filter allocates nothing" `Quick
            test_int_filter_allocates_nothing;
          qcheck filter_str_const_matches_boxed;
          qcheck filter_vertex_reg_matches_boxed;
          Alcotest.test_case "string and vertex filters allocate nothing" `Quick
            test_str_and_vertex_filters_allocate_nothing;
        ] );
    ]
