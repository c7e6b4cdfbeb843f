(* Unit and property tests for pstm_util. *)

let qcheck = QCheck_alcotest.to_alcotest

(* --- Prng --- *)

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create 1 and b = Prng.create 2 in
  Alcotest.(check bool) "different seeds differ" true (Prng.next_int64 a <> Prng.next_int64 b)

let test_prng_split_independent () =
  let parent = Prng.create 7 in
  let child = Prng.split parent in
  Alcotest.(check bool) "child differs from parent" true
    (Prng.next_int64 child <> Prng.next_int64 parent)

(* The first draws of a seed and of a split, pinned: every figure's
   datasets and weight splits derive from these streams, so a change to
   the generator's representation must keep them bit for bit. *)
let test_prng_pinned_draws () =
  let p = Prng.create 42 in
  List.iter
    (fun want -> Alcotest.(check int64) "next_int64" want (Prng.next_int64 p))
    [ -4767286540954276203L; 2949826092126892291L; 5139283748462763858L ];
  List.iter (fun want -> Alcotest.(check int) "int" want (Prng.int p 1000)) [ 941; 812; 265 ];
  List.iter
    (fun want -> Alcotest.(check string) "float" want (Printf.sprintf "%h" (Prng.float p 1.0)))
    [ "0x1.bf4b38e229bb4p-3"; "0x1.99ec6bdd3d3c5p-1" ];
  Alcotest.(check bool) "bool" true (Prng.bool p);
  let child = Prng.split p in
  List.iter
    (fun want -> Alcotest.(check int64) "split child" want (Prng.next_int64 child))
    [ 3299762934642087680L; -4786880430388347703L ];
  Alcotest.(check int64) "parent after split" 3779771651426294207L (Prng.next_int64 p);
  let out = Array.make 3 0 in
  Prng.fill_int63 p out ~n:3;
  Alcotest.(check (array int)) "fill_int63"
    [| -129326695393636162; 247114729376335590; 369180215851445687 |]
    out;
  Alcotest.(check int) "int near max_int" 3067506354810381239 (Prng.int p max_int);
  Alcotest.(check string) "exponential" "0x1.2321baa8774ep+0"
    (Printf.sprintf "%h" (Prng.exponential p ~mean:5.0))

(* Allocation guard: integer and boolean draws allocate nothing once the
   state is unboxed. Measured 0 words for the 3 000 draws; 18 000 with
   a boxed [int64] state field (6 words a draw). The bound leaves room
   for the boxed floats [Gc.minor_words] itself returns. *)
let test_prng_draws_allocate_nothing () =
  let p = Prng.create 5 in
  let acc = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    acc := !acc + Prng.int p 1000 + Prng.int_in_range p ~lo:3 ~hi:9;
    if Prng.bool p then incr acc
  done;
  let words = int_of_float (Gc.minor_words () -. before) in
  Alcotest.(check bool) "drew something" true (!acc > 0);
  if words > 8 then Alcotest.failf "3000 draws allocated %d words (bound 8)" words

let prng_int_in_bounds =
  QCheck.Test.make ~name:"prng int stays in bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let prng = Prng.create seed in
      let x = Prng.int prng bound in
      x >= 0 && x < bound)

let prng_range_in_bounds =
  QCheck.Test.make ~name:"prng int_in_range inclusive" ~count:500
    QCheck.(triple small_int (int_range (-100) 100) (int_range 0 100))
    (fun (seed, lo, extent) ->
      let prng = Prng.create seed in
      let hi = lo + extent in
      let x = Prng.int_in_range prng ~lo ~hi in
      x >= lo && x <= hi)

let test_prng_shuffle_is_permutation () =
  let prng = Prng.create 3 in
  let arr = Array.init 50 Fun.id in
  Prng.shuffle_in_place prng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

let test_prng_float_range () =
  let prng = Prng.create 9 in
  for _ = 1 to 1000 do
    let f = Prng.float prng 2.5 in
    Alcotest.(check bool) "in [0, 2.5)" true (f >= 0.0 && f < 2.5)
  done

let test_prng_exponential_positive () =
  let prng = Prng.create 4 in
  let total = ref 0.0 in
  for _ = 1 to 1000 do
    let x = Prng.exponential prng ~mean:5.0 in
    Alcotest.(check bool) "non-negative" true (x >= 0.0);
    total := !total +. x
  done;
  let mean = !total /. 1000.0 in
  Alcotest.(check bool) "mean near 5" true (mean > 4.0 && mean < 6.0)

(* --- Vec --- *)

let vec_model =
  QCheck.Test.make ~name:"vec push/to_list matches list model" ~count:300
    QCheck.(list small_int)
    (fun xs ->
      let v = Vec.create ~dummy:0 in
      List.iter (Vec.push v) xs;
      Vec.to_list v = xs && Vec.length v = List.length xs)

let test_vec_pop_lifo () =
  let v = Vec.create ~dummy:0 in
  List.iter (Vec.push v) [ 1; 2; 3 ];
  Alcotest.(check int) "pop 3" 3 (Vec.pop v);
  Alcotest.(check int) "pop 2" 2 (Vec.pop v);
  Vec.push v 9;
  Alcotest.(check int) "pop 9" 9 (Vec.pop v);
  Alcotest.(check int) "pop 1" 1 (Vec.pop v);
  Alcotest.check_raises "pop empty" (Invalid_argument "Vec.pop: empty") (fun () ->
      ignore (Vec.pop v))

let test_vec_swap_remove () =
  let v = Vec.of_array ~dummy:0 [| 10; 20; 30; 40 |] in
  Alcotest.(check int) "removes index 1" 20 (Vec.swap_remove v 1);
  Alcotest.(check (list int)) "last moved into hole" [ 10; 40; 30 ] (Vec.to_list v)

let test_vec_append_clear () =
  let a = Vec.of_array ~dummy:0 [| 1; 2 |] in
  let b = Vec.of_array ~dummy:0 [| 3; 4; 5 |] in
  Vec.append ~into:a b;
  Alcotest.(check (list int)) "appended" [ 1; 2; 3; 4; 5 ] (Vec.to_list a);
  Vec.clear a;
  Alcotest.(check int) "cleared" 0 (Vec.length a);
  Alcotest.(check (list int)) "b untouched" [ 3; 4; 5 ] (Vec.to_list b)

let vec_sort_model =
  QCheck.Test.make ~name:"vec sort matches list sort" ~count:200
    QCheck.(list small_int)
    (fun xs ->
      let v = Vec.of_array ~dummy:0 (Array.of_list xs) in
      Vec.sort compare v;
      Vec.to_list v = List.sort compare xs)

let test_vec_bounds () =
  let v = Vec.of_array ~dummy:0 [| 1 |] in
  Alcotest.check_raises "get oob" (Invalid_argument "Vec.get: out of bounds") (fun () ->
      ignore (Vec.get v 1))

(* --- Heap --- *)

(* Int keys with unit values: the heap orders on keys alone. *)
let int_heap () =
  Heap.create ~cmp:(fun a () b () -> compare (a : int) b) ~capacity:0 ~dummy_key:0 ~dummy_value:()

let heap_sorts =
  QCheck.Test.make ~name:"heap drains in sorted order" ~count:300
    QCheck.(list small_int)
    (fun xs ->
      let h = int_heap () in
      List.iter (fun x -> Heap.push h x ()) xs;
      let rec drain acc =
        if Heap.is_empty h then List.rev acc
        else begin
          let x = Heap.min_key h in
          Heap.pop h;
          drain (x :: acc)
        end
      in
      drain [] = List.sort compare xs)

(* Pushes and pops interleaved, with clears, so pushes reuse the slots
   that pops free: the minimum and length after every op match a sorted
   list, and the values (each push's index) stay with their keys. *)
let heap_matches_model =
  QCheck.Test.make ~name:"heap matches a sorted-list model" ~count:300
    QCheck.(list (pair (int_range 0 9) small_int))
    (fun ops ->
      let h =
        Heap.create ~cmp:(fun a i b j -> compare (a, i) (b, j)) ~capacity:2 ~dummy_key:0
          ~dummy_value:(-1)
      in
      let model = ref [] in
      List.for_all
        (fun (i, (op, x)) ->
          (match op with
          | 0 ->
            Heap.clear h;
            model := []
          | 1 | 2 | 3 -> (
            match !model with
            | [] -> ()
            | _ :: rest ->
              Heap.pop h;
              model := rest)
          | _ ->
            Heap.push h x i;
            model := List.sort compare ((x, i) :: !model));
          Heap.length h = List.length !model
          && match !model with [] -> Heap.is_empty h | (k, v) :: _ -> Heap.min_key h = k && Heap.min_value h = v)
        (List.mapi (fun i op -> (i, op)) ops))

let test_heap_peek () =
  let h = int_heap () in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Alcotest.check_raises "empty min" (Invalid_argument "Heap.min_key: empty") (fun () ->
      ignore (Heap.min_key h : int));
  List.iter (fun x -> Heap.push h x ()) [ 5; 2; 8 ];
  Alcotest.(check int) "min on top" 2 (Heap.min_key h);
  Alcotest.(check int) "length" 3 (Heap.length h)

let test_heap_to_sorted_preserves () =
  let h = int_heap () in
  List.iter (fun x -> Heap.push h x ()) [ 3; 1; 2 ];
  Alcotest.(check (list int)) "sorted view" [ 1; 2; 3 ] (List.map fst (Heap.to_sorted_list h));
  Alcotest.(check int) "heap intact" 3 (Heap.length h)

(* --- Topk --- *)

(* Pairs ordered by score, ties by the smaller output, as the TopK
   aggregation orders them. *)
let pair_cmp s1 o1 s2 o2 =
  let c = compare (s1 : int) s2 in
  if c <> 0 then c else compare (o2 : int) o1

let int_topk k = Topk.create ~k ~cmp:pair_cmp ~dummy_score:0 ~dummy_output:0
let add_all t xs = List.iter (fun (s, o) -> Topk.add t s o) xs

(* Best first. *)
let take_k k xs =
  List.filteri (fun i _ -> i < k) (List.sort (fun (s1, o1) (s2, o2) -> pair_cmp s2 o2 s1 o1) xs)

let topk_matches_sort =
  QCheck.Test.make ~name:"topk equals sort-take-k" ~count:300
    QCheck.(pair (int_range 0 10) (list (pair small_int small_int)))
    (fun (k, xs) ->
      let t = int_topk k in
      add_all t xs;
      Topk.to_sorted_list t = take_k k xs)

let test_topk_merge () =
  let a = int_topk 3 and b = int_topk 3 in
  add_all a [ (1, 0); (5, 0); (3, 0) ];
  add_all b [ (9, 0); (2, 0); (7, 0) ];
  Topk.merge ~into:a b;
  Alcotest.(check (list int)) "merged top 3" [ 9; 7; 5 ] (List.map fst (Topk.to_sorted_list a))

(* A stream with many duplicate scores (and some duplicate pairs), dealt
   to random partials, each merged into one accumulator in a random
   order, as a coordinator combines partition partials. The accumulator
   is recycled between rounds ([reset]) and the partials are reused
   across merges, so a merge that changed its source or left stale pairs
   behind fails. *)
let topk_partials_match_sort =
  QCheck.Test.make ~name:"merged topk partials equal sort-take-k" ~count:300
    QCheck.(
      make
        ~print:Print.(triple int (list (pair int int)) (list int))
        Gen.(
          triple (oneofl [ 0; 1; 2; 10 ])
            (list_size (int_range 0 60) (pair (int_range 0 6) (int_range 0 20)))
            (list_size (int_range 1 8) (int_range 0 1000))))
    (fun (k, xs, order) ->
      let n_parts = List.length order in
      let parts = Array.init n_parts (fun _ -> int_topk k) in
      List.iteri (fun i (s, o) -> Topk.add parts.(((i * 7) + s) mod n_parts) s o) xs;
      let before = Array.map Topk.to_sorted_list parts in
      let acc = int_topk k in
      let round () =
        Topk.reset acc;
        (* Merge in the order of the drawn keys. *)
        List.iter
          (fun (_, i) -> Topk.merge ~into:acc parts.(i))
          (List.sort compare (List.mapi (fun i key -> (key, i)) order));
        Topk.to_sorted_list acc
      in
      let first = round () in
      let second = round () in
      first = take_k k xs && second = first && Array.map Topk.to_sorted_list parts = before)

(* --- Stats --- *)

let test_stats_percentiles () =
  let samples = Array.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 0.001)) "p50" 50.0 (Stats.percentile samples 50.0);
  Alcotest.(check (float 0.001)) "p99" 99.0 (Stats.percentile samples 99.0);
  Alcotest.(check (float 0.001)) "p100" 100.0 (Stats.percentile samples 100.0);
  Alcotest.(check (float 0.001)) "mean" 50.5 (Stats.mean samples)

let test_stats_empty () =
  let s = Stats.summarize [||] in
  Alcotest.(check int) "count" 0 s.Stats.count;
  Alcotest.(check (float 0.0)) "mean" 0.0 s.Stats.mean

let test_stats_geomean () =
  Alcotest.(check (float 0.001)) "geomean" 2.0 (Stats.geomean [| 1.0; 4.0 |])

(* --- Histogram --- *)

let test_histogram_percentile_accuracy () =
  let h = Histogram.create () in
  for i = 1 to 1000 do
    Histogram.add h (float_of_int i /. 1000.0)
  done;
  let p50 = Histogram.percentile h 50.0 in
  Alcotest.(check bool) "p50 near 0.5" true (p50 > 0.38 && p50 < 0.65);
  Alcotest.(check int) "count" 1000 (Histogram.count h)

let test_histogram_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  Histogram.add a 1.0;
  Histogram.add b 2.0;
  Histogram.merge ~into:a b;
  Alcotest.(check int) "merged count" 2 (Histogram.count a);
  Alcotest.(check (float 0.001)) "merged mean" 1.5 (Histogram.mean a)

(* --- Bitset --- *)

let bitset_model =
  QCheck.Test.make ~name:"bitset matches set model" ~count:200
    QCheck.(list (int_range 0 199))
    (fun xs ->
      let bs = Bitset.create 200 in
      List.iter (Bitset.add bs) xs;
      let module S = Set.Make (Int) in
      let model = S.of_list xs in
      S.for_all (Bitset.mem bs) model
      && Bitset.count bs = S.cardinal model
      && List.for_all
           (fun i -> Bitset.mem bs i = S.mem i model)
           (List.init 200 Fun.id))

let test_bitset_add_if_absent () =
  let bs = Bitset.create 10 in
  Alcotest.(check bool) "first add" true (Bitset.add_if_absent bs 3);
  Alcotest.(check bool) "second add" false (Bitset.add_if_absent bs 3);
  Bitset.remove bs 3;
  Alcotest.(check bool) "after remove" true (Bitset.add_if_absent bs 3)

let test_bitset_bounds () =
  let bs = Bitset.create 8 in
  Alcotest.check_raises "oob" (Invalid_argument "Bitset: index out of bounds") (fun () ->
      Bitset.add bs 8)

(* --- Chunks --- *)

type chunk_op =
  | Grow of int (* fill *)
  | Set of int * int (* handle, modulo the capacity; value *)
  | Get of int

let pp_chunk_op = function
  | Grow f -> Printf.sprintf "grow %d" f
  | Set (h, v) -> Printf.sprintf "set %d %d" h v
  | Get h -> Printf.sprintf "get %d" h

let chunk_op =
  QCheck.Gen.(
    frequency
      [
        (1, map (fun f -> Grow f) small_signed_int);
        (2, map2 (fun h v -> Set (h, v)) (int_bound (1 lsl 20)) int);
        (1, map (fun h -> Get h) (int_bound (1 lsl 20)));
      ])

(* A lane against a flat array, over random grows, writes and reads that
   reach at least 40 chunks (the spine doubles several times): every
   read agrees; a slot keeps its value across later growth; [capacity] is the chunk count times 1 024; and a handle
   past it is refused. *)
let chunks_model =
  QCheck.Test.make ~name:"chunked lanes match an array model" ~count:100
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_chunk_op ops))
       QCheck.Gen.(list_size (int_range 160 400) chunk_op))
    (fun ops ->
      let lane = Chunks.create () and model = Vec.create ~dummy:0 and chunks = ref 0 in
      let check_capacity () =
        if Chunks.capacity lane <> !chunks * 1024 then
          QCheck.Test.fail_reportf "capacity %d after %d chunks" (Chunks.capacity lane) !chunks
      in
      let check h =
        if Chunks.get lane h <> Vec.get model h then
          QCheck.Test.fail_reportf "handle %d reads %d, model %d" h (Chunks.get lane h)
            (Vec.get model h)
      in
      let apply = function
        | Grow fill ->
          Chunks.grow lane fill;
          for _ = 1 to 1024 do
            Vec.push model fill
          done;
          incr chunks;
          check_capacity ()
        | Set (h, v) when !chunks > 0 ->
          let h = h mod Vec.length model in
          Chunks.set lane h v;
          Vec.set model h v
        | Get h when !chunks > 0 -> check (h mod Vec.length model)
        | Set _ | Get _ -> ()
      in
      List.iter apply ops;
      while !chunks < 40 do
        apply (Grow (- !chunks))
      done;
      for h = 0 to Vec.length model - 1 do
        check h
      done;
      (match Chunks.get lane (Chunks.capacity lane) with
      | _ -> QCheck.Test.fail_report "a handle past the capacity was read"
      | exception Invalid_argument _ -> ());
      true)

(* Words allocated on either heap, minor + major - promoted; read after
   [Gc.minor] so the window starts on an empty minor heap. *)
let heap_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* Allocation guard for growth: a fresh lane grown to 2 000 chunks
   allocates the chunks (1 025 words each with the header) and a spine
   that doubles, about 2 spine words per chunk in all. Measured: 1 027.1
   words per chunk; 2 028.5 when each chunk appended a copy of the whole
   spine. *)
let test_chunks_growth_allocation () =
  let n = 2_000 in
  let lane = Chunks.create () in
  Gc.minor ();
  let before = heap_words () in
  for _ = 1 to n do
    Chunks.grow lane 0
  done;
  let per_chunk = (heap_words () -. before) /. float_of_int n in
  Alcotest.(check int) "capacity" (n * 1024) (Chunks.capacity lane);
  if per_chunk > 1025.0 +. 4.0 then
    Alcotest.failf "growing a lane: %.1f words per chunk (bound 1 029: the chunk and its header \
                    plus 4 spine words)" per_chunk

let () =
  Alcotest.run "util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "split independence" `Quick test_prng_split_independent;
          Alcotest.test_case "pinned draws" `Quick test_prng_pinned_draws;
          Alcotest.test_case "draws allocate nothing" `Quick test_prng_draws_allocate_nothing;
          Alcotest.test_case "shuffle permutes" `Quick test_prng_shuffle_is_permutation;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "exponential" `Quick test_prng_exponential_positive;
          qcheck prng_int_in_bounds;
          qcheck prng_range_in_bounds;
        ] );
      ( "vec",
        [
          Alcotest.test_case "pop lifo" `Quick test_vec_pop_lifo;
          Alcotest.test_case "swap_remove" `Quick test_vec_swap_remove;
          Alcotest.test_case "append/clear" `Quick test_vec_append_clear;
          Alcotest.test_case "bounds" `Quick test_vec_bounds;
          qcheck vec_model;
          qcheck vec_sort_model;
        ] );
      ( "heap",
        [
          Alcotest.test_case "peek/min" `Quick test_heap_peek;
          Alcotest.test_case "to_sorted preserves" `Quick test_heap_to_sorted_preserves;
          qcheck heap_sorts;
          qcheck heap_matches_model;
        ] );
      ( "topk",
        [
          Alcotest.test_case "merge" `Quick test_topk_merge;
          qcheck topk_matches_sort;
          qcheck topk_partials_match_sort;
        ] );
      ( "stats",
        [
          Alcotest.test_case "percentiles" `Quick test_stats_percentiles;
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "geomean" `Quick test_stats_geomean;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "percentile accuracy" `Quick test_histogram_percentile_accuracy;
          Alcotest.test_case "merge" `Quick test_histogram_merge;
        ] );
      ( "chunks",
        [
          qcheck chunks_model;
          Alcotest.test_case "growth allocates the chunks and a doubling spine" `Quick
            test_chunks_growth_allocation;
        ] );
      ( "bitset",
        [
          Alcotest.test_case "add_if_absent" `Quick test_bitset_add_if_absent;
          Alcotest.test_case "bounds" `Quick test_bitset_bounds;
          qcheck bitset_model;
        ] );
    ]
