(* Bounded top-k selector.

   Keeps the k best elements seen so far in a min-heap of size k: a new
   element displaces the current minimum when it compares greater. This is
   the accumulator behind the TopK aggregation step (Figure 1 of the paper)
   and is itself commutative and associative, hence partitionable: partial
   top-k sets merged across partitions give the global top-k. *)

type 'a t = {
  k : int;
  cmp : 'a -> 'a -> int;
  heap : 'a Heap.t;
}

let create ~k ~cmp ~dummy =
  if k < 0 then invalid_arg "Topk.create: negative k";
  { k; cmp; heap = Heap.create ~cmp ~dummy }

let length t = Heap.length t.heap

let add t x =
  if t.k > 0 then
    if Heap.length t.heap < t.k then Heap.push t.heap x
    else if t.cmp x (Heap.peek_exn t.heap) > 0 then begin
      ignore (Heap.pop t.heap);
      Heap.push t.heap x
    end

let is_full t = Heap.length t.heap >= t.k
let worst t = Heap.peek_exn t.heap

(* Feed [t]'s elements to [into] in ascending order, as [to_sorted_list]
   drains them: under ties ([cmp] equal, values not) the kept set depends
   on the order, so heap-array order would not do. *)
let merge ~into t =
  let src = Heap.copy t.heap in
  while not (Heap.is_empty src) do
    add into (Heap.pop src)
  done

let fold f acc t = Heap.fold f acc t.heap

(* Best first. *)
let to_sorted_list t = List.rev (Heap.to_sorted_list t.heap)
