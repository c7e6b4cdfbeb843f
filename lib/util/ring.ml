(* Growable FIFO ring buffer.

   [Stdlib.Queue] allocates a cell per push; the engines' per-worker task
   queues take one push per delivered message, so this keeps the
   elements in one power-of-two array instead and allocates only when it
   doubles. Live elements are [data.(head)], [data.(head + 1)], ... for
   [len] slots, modulo the capacity. *)

type 'a t = {
  mutable data : 'a array;
  mutable head : int;
  mutable len : int;
  dummy : 'a;
}

let create ~dummy = { data = [||]; head = 0; len = 0; dummy }

let length t = t.len

let is_empty t = t.len = 0

(* Double the capacity, unrolling the wrapped prefix so the live
   elements start at index 0. *)
let grow t =
  let cap = Array.length t.data in
  let data = Array.make (max 8 (2 * cap)) t.dummy in
  let first = min t.len (cap - t.head) in
  Array.blit t.data t.head data 0 first;
  Array.blit t.data 0 data first (t.len - first);
  t.data <- data;
  t.head <- 0

let push t x =
  if t.len = Array.length t.data then grow t;
  t.data.((t.head + t.len) land (Array.length t.data - 1)) <- x;
  t.len <- t.len + 1

let pop t =
  if t.len = 0 then invalid_arg "Ring.pop: empty";
  let x = t.data.(t.head) in
  t.data.(t.head) <- t.dummy;
  t.head <- (t.head + 1) land (Array.length t.data - 1);
  t.len <- t.len - 1;
  x
