(* Bounded top-k selector.

   Keeps the k best (score, output) pairs seen so far in a min-heap of
   size k, scores and outputs in two flat lanes: a new pair displaces the
   current minimum when it compares greater. This is the accumulator
   behind the TopK aggregation step (Figure 1 of the paper) and is itself
   commutative and associative, hence partitionable: partial top-k sets
   merged across partitions give the global top-k.

   The lanes are sized at creation (k slots, up to [max_initial_capacity])
   and kept by [reset], so a recycled selector adds without allocating.
   [merge] reads its source in ascending order through the target's
   scratch lane, which copies only the source's int lane of slots: the
   source's pairs are neither copied nor changed. *)

type ('s, 'o) t = {
  k : int;
  cmp : 's -> 'o -> 's -> 'o -> int;
  heap : ('s, 'o) Heap.t;
  scratch : Heap.scratch;
}

(* A larger k grows its lanes as pairs arrive, so a query asking for a
   huge k does not allocate it on every partition up front. *)
let max_initial_capacity = 256

let create ~k ~cmp ~dummy_score ~dummy_output =
  if k < 0 then invalid_arg "Topk.create: negative k";
  { k; cmp;
    heap =
      Heap.create ~cmp ~capacity:(min k max_initial_capacity) ~dummy_key:dummy_score
        ~dummy_value:dummy_output;
    scratch = Heap.scratch () }

let k t = t.k
let length t = Heap.length t.heap

let add t s o =
  if t.k > 0 then
    if Heap.length t.heap < t.k then Heap.push t.heap s o
    else if t.cmp s o (Heap.min_key t.heap) (Heap.min_value t.heap) > 0 then begin
      Heap.pop t.heap;
      Heap.push t.heap s o
    end

let is_full t = Heap.length t.heap >= t.k
let worst_score t = Heap.min_key t.heap
let reset t = Heap.clear t.heap

(* Feed [t]'s pairs to [into] in ascending order, as popping [t] would
   yield them: under ties ([cmp] equal, pairs not) the kept set depends
   on the order, so heap-array order would not do. *)
let merge ~into t = Heap.iter_ascending add into into.scratch t.heap

let fold f acc t = Heap.fold f acc t.heap

(* Best first. *)
let to_sorted_list t =
  let acc = ref [] in
  Heap.iter_ascending (fun acc s o -> acc := (s, o) :: !acc) acc t.scratch t.heap;
  !acc
