(* Binary min-heap of (key, value) pairs.

   Used by the bounded top-k selector, whose elements are (score, output)
   pairs. A pair sits in a slot of two flat lanes ([keys], [vals]) from
   its push to its pop, so a push builds no tuple; the heap proper is an
   int lane of slots ([order]), and sifting moves those ints, not the
   pairs. [order] is a permutation of the slots in use: its first [len]
   entries are the heap, the rest are free slots that later pushes
   reuse. Lanes sized at creation grow no array until they overflow. The
   ordering compares both halves and is fixed at creation. (The
   discrete-event queue keeps its own struct-of-arrays heap on int
   keys.) *)

type ('k, 'v) t = {
  cmp : 'k -> 'v -> 'k -> 'v -> int;
  mutable keys : 'k array; (* by slot *)
  mutable vals : 'v array; (* by slot *)
  mutable order : int array; (* heap positions [0, len), then free slots up to [used] *)
  mutable len : int;
  mutable used : int; (* slots [0, used) have held a pair since the last [clear] *)
  dummy_key : 'k;
  dummy_value : 'v;
}

let create ~cmp ~capacity ~dummy_key ~dummy_value =
  { cmp; keys = Array.make capacity dummy_key; vals = Array.make capacity dummy_value;
    order = Array.make capacity 0; len = 0; used = 0; dummy_key; dummy_value }

let length t = t.len

let is_empty t = t.len = 0

let clear t =
  for s = 0 to t.used - 1 do
    t.keys.(s) <- t.dummy_key;
    t.vals.(s) <- t.dummy_value
  done;
  t.len <- 0;
  t.used <- 0

let ensure_capacity t n =
  let cap = Array.length t.keys in
  if n > cap then begin
    let cap = max n (max 8 (2 * cap)) in
    let keys = Array.make cap t.dummy_key and vals = Array.make cap t.dummy_value in
    let order = Array.make cap 0 in
    Array.blit t.keys 0 keys 0 t.used;
    Array.blit t.vals 0 vals 0 t.used;
    Array.blit t.order 0 order 0 t.used;
    t.keys <- keys;
    t.vals <- vals;
    t.order <- order
  end

let sift_up t i =
  let order = t.order and keys = t.keys and vals = t.vals in
  let x = order.(i) in
  let k = keys.(x) and v = vals.(x) in
  let i = ref i in
  while
    !i > 0
    &&
    let parent = order.((!i - 1) / 2) in
    t.cmp k v keys.(parent) vals.(parent) < 0
  do
    let parent = (!i - 1) / 2 in
    order.(!i) <- order.(parent);
    i := parent
  done;
  order.(!i) <- x

(* Sift position [i] of [order]'s heap of [n] slots down; shared by the
   heap itself and by {!iter_ascending}'s copy. *)
let sift_down cmp keys vals order n i =
  let x = order.(i) in
  let k = keys.(x) and v = vals.(x) in
  let i = ref i in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    let r = l + 1 in
    if l >= n then continue := false
    else begin
      let smallest =
        if r < n && cmp keys.(order.(r)) vals.(order.(r)) keys.(order.(l)) vals.(order.(l)) < 0
        then r
        else l
      in
      let s = order.(smallest) in
      if cmp keys.(s) vals.(s) k v < 0 then begin
        order.(!i) <- s;
        i := smallest
      end
      else continue := false
    end
  done;
  order.(!i) <- x

let push t k v =
  let slot =
    if t.len < t.used then t.order.(t.len)
    else begin
      ensure_capacity t (t.used + 1);
      let s = t.used in
      t.order.(t.len) <- s;
      t.used <- s + 1;
      s
    end
  in
  t.keys.(slot) <- k;
  t.vals.(slot) <- v;
  t.len <- t.len + 1;
  sift_up t (t.len - 1)

let min_key t =
  if t.len = 0 then invalid_arg "Heap.min_key: empty";
  t.keys.(t.order.(0))

let min_value t =
  if t.len = 0 then invalid_arg "Heap.min_value: empty";
  t.vals.(t.order.(0))

(* The last heap position moves to the root, as in an array heap, and
   the popped slot takes its place at the head of the free slots. Its
   pair stays in the lanes until a push reuses the slot or [clear]. *)
let pop t =
  if t.len = 0 then invalid_arg "Heap.pop: empty";
  let top = t.order.(0) in
  let last = t.len - 1 in
  t.len <- last;
  t.order.(0) <- t.order.(last);
  t.order.(last) <- top;
  if last > 0 then sift_down t.cmp t.keys t.vals t.order last 0

type scratch = { mutable lane : int array }

let scratch () = { lane = [||] }

let iter_ascending f x scratch t =
  if Array.length scratch.lane < t.len then scratch.lane <- Array.make (max 8 t.len) 0;
  let lane = scratch.lane in
  for i = 0 to t.len - 1 do
    lane.(i) <- t.order.(i)
  done;
  for n = t.len - 1 downto 0 do
    let s = lane.(0) in
    f x t.keys.(s) t.vals.(s);
    lane.(0) <- lane.(n);
    sift_down t.cmp t.keys t.vals lane n 0
  done

let fold f acc t =
  let acc = ref acc in
  for i = 0 to t.len - 1 do
    let s = t.order.(i) in
    acc := f !acc t.keys.(s) t.vals.(s)
  done;
  !acc

let to_sorted_list t =
  let acc = ref [] in
  iter_ascending (fun acc k v -> acc := (k, v) :: !acc) acc (scratch ()) t;
  List.rev !acc
